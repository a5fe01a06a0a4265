"""The nested-loop oracles for :mod:`repro.graph.skipgram`'s corpus.

``_reference_pairs`` enumerates (center, context) pairs walk by walk,
center by center, contexts left to right; ``SkipGramTrainer``'s strided
windows must emit exactly these pairs in exactly this order.
``_reference_noise_counts`` is the per-node counting loop behind the noise
distribution.  With both swapped in, a trainer consumes the RNG as the
engine does and must train bit-identical embeddings.  ``_reference_train``
is the training loop before its two kernels were replaced: each epoch
reorders the pairs with ``Generator.shuffle`` and every update scatters
with ``np.add.at``.
"""

from __future__ import annotations

import numpy as np


def _pairs_from_walk(window, walk):
    """(center, context) pairs within ``window`` along one walk."""
    pairs = []
    for index, center in enumerate(walk):
        low = max(0, index - window)
        high = min(len(walk), index + window + 1)
        for context_index in range(low, high):
            if context_index != index:
                pairs.append((center, walk[context_index]))
    return pairs


def _reference_pairs(trainer, walks):
    """All pairs of the corpus via the per-walk loops, as an (P, 2) array."""
    pairs = []
    for walk in walks:
        pairs.extend(_pairs_from_walk(trainer.window, walk))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _reference_noise_counts(trainer, walks):
    """How often each of the trainer's nodes occurs in the corpus."""
    counts = np.zeros(trainer.num_nodes)
    for walk in walks:
        for node in walk:
            counts[node] += 1
    return counts


def _reference_train(trainer, walks, epochs=1):
    """``trainer.train(walks, epochs)`` with ``Generator.shuffle`` and
    ``np.add.at`` in place of the permutation-take and the bincount scatter."""
    from repro.graph.skipgram import _MIN_LR_FRACTION, _sigmoid

    noise = trainer._noise_distribution(walks)
    pairs = trainer._pairs(walks)
    if pairs.shape[0] == 0:
        return trainer.in_embeddings
    total_batches = max(1, epochs * -(-len(pairs) // trainer.batch_size))
    completed = 0
    for _ in range(epochs):
        trainer.rng.shuffle(pairs)
        negatives = trainer.rng.choice(
            trainer.num_nodes, size=(len(pairs), trainer.negatives), p=noise)
        for start in range(0, len(pairs), trainer.batch_size):
            lr = max(trainer.lr * (1.0 - completed / total_batches),
                     trainer.lr * _MIN_LR_FRACTION)
            chunk = slice(start, start + trainer.batch_size)
            centers, contexts = pairs[chunk, 0], pairs[chunk, 1]
            center_vecs = trainer.in_embeddings[centers]
            targets = np.concatenate((contexts[:, None], negatives[chunk]), axis=1)
            labels = np.zeros(targets.shape)
            labels[:, 0] = 1.0
            target_vecs = trainer.out_embeddings[targets]
            scores = _sigmoid(np.einsum("bkd,bd->bk", target_vecs, center_vecs))
            errors = labels - scores
            grad_centers = np.einsum("bk,bkd->bd", errors, target_vecs)
            grad_targets = errors[:, :, None] * center_vecs[:, None, :]
            np.add.at(trainer.out_embeddings, targets.reshape(-1),
                      lr * grad_targets.reshape(-1, trainer.dim))
            np.add.at(trainer.in_embeddings, centers, lr * grad_centers)
            completed += 1
    return trainer.in_embeddings
