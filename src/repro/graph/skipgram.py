"""Skip-gram with negative sampling (SGNS) over random-walk corpora.

This is the word2vec-style objective node2vec optimises.  The SGD update is
vectorised numpy (the SGNS gradient has a closed form), and so is the corpus
extraction: strided context windows over a padded walk matrix emit the
(center, context) pairs in *exactly* the order of the original nested loops,
and one batched ``np.bincount`` builds the noise distribution.  The loops
are kept as :meth:`SkipGramTrainer._reference_pairs` and
:meth:`SkipGramTrainer._reference_noise_counts`; because pairs and noise
counts are bit-identical to them, training consumes the RNG identically and
the embeddings match a loop-built corpus bit for bit.

The learning rate decays linearly over the planned updates down to a floor
of ``lr / 10_000``, as in word2vec.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SkipGramTrainer"]

#: Word2vec's learning-rate floor: the linear decay never goes below
#: ``lr * _MIN_LR_FRACTION``.
_MIN_LR_FRACTION = 1e-4


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class SkipGramTrainer:
    """Train node embeddings with skip-gram + negative sampling.

    Parameters
    ----------
    num_nodes:
        Vocabulary size.
    dim:
        Embedding dimensionality.
    window:
        Context window radius applied to each walk.
    negatives:
        Number of negative samples per positive pair.
    lr:
        Initial SGD learning rate; it decays linearly over the planned
        updates of a :meth:`train` call, floored at ``lr / 10_000``.
    """

    def __init__(self, num_nodes, dim, window=5, negatives=5, lr=0.025, seed=0,
                 batch_size=512):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.num_nodes = num_nodes
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.lr = lr
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        scale = 0.5 / dim
        self.in_embeddings = self.rng.uniform(-scale, scale, size=(num_nodes, dim))
        self.out_embeddings = np.zeros((num_nodes, dim))

    # ------------------------------------------------------------------
    # Corpus extraction
    # ------------------------------------------------------------------
    def _pairs_from_walk(self, walk):
        """(center, context) pairs within the window along a walk (reference)."""
        pairs = []
        for index, center in enumerate(walk):
            low = max(0, index - self.window)
            high = min(len(walk), index + self.window + 1)
            for context_index in range(low, high):
                if context_index != index:
                    pairs.append((center, walk[context_index]))
        return pairs

    def _reference_pairs(self, walks):
        """All pairs of the corpus via the per-walk loops, as an (P, 2) array."""
        pairs = []
        for walk in walks:
            pairs.extend(self._pairs_from_walk(walk))
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def _vectorized_pairs(self, walks):
        """All pairs of the corpus in reference order, via strided windows.

        Walks are padded into one ``(num_walks, max_len)`` matrix; every
        window offset is one shifted view of that matrix.  Offsets are
        stacked in increasing order, so flattening row-major reproduces the
        reference enumeration exactly: walk by walk, center by center,
        contexts left-to-right.
        """
        num_walks = len(walks)
        lengths = np.fromiter((len(walk) for walk in walks), dtype=np.int64,
                              count=num_walks)
        if num_walks == 0 or lengths.max(initial=0) == 0:
            return np.zeros((0, 2), dtype=np.int64)
        max_len = int(lengths.max())
        padded = np.full((num_walks, max_len), -1, dtype=np.int64)
        for row, walk in enumerate(walks):
            padded[row, :len(walk)] = walk

        offsets = [d for d in range(-self.window, self.window + 1) if d != 0]
        contexts = np.full((num_walks, max_len, len(offsets)), -1, dtype=np.int64)
        for slot, offset in enumerate(offsets):
            width = max_len - abs(offset)
            if width <= 0:  # window wider than the longest walk
                continue
            if offset < 0:
                contexts[:, -offset:, slot] = padded[:, :width]
            else:
                contexts[:, :width, slot] = padded[:, offset:]
        centers = np.broadcast_to(padded[:, :, None], contexts.shape)
        valid = (contexts >= 0) & (centers >= 0)
        return np.stack((centers[valid], contexts[valid]), axis=1)

    def _noise_distribution(self, walks):
        """Unigram^0.75 noise distribution over the corpus."""
        counts = np.power(self._vectorized_noise_counts(walks), 0.75)
        total = counts.sum()
        if total == 0:
            return np.full(self.num_nodes, 1.0 / self.num_nodes)
        return counts / total

    def _reference_noise_counts(self, walks):
        counts = np.zeros(self.num_nodes)
        for walk in walks:
            for node in walk:
                counts[node] += 1
        return counts

    def _vectorized_noise_counts(self, walks):
        if not walks:
            return np.zeros(self.num_nodes)
        nodes = np.concatenate([np.asarray(walk, dtype=np.int64) for walk in walks])
        return np.bincount(nodes, minlength=self.num_nodes).astype(np.float64)

    # ------------------------------------------------------------------
    def train(self, walks, epochs=1):
        """Run SGNS over the walk corpus for ``epochs`` passes."""
        noise = self._noise_distribution(walks)
        pairs = self._vectorized_pairs(walks)
        if pairs.shape[0] == 0:
            return self.in_embeddings

        batches_per_epoch = -(-len(pairs) // self.batch_size)
        total_batches = max(1, epochs * batches_per_epoch)
        completed = 0
        for _ in range(epochs):
            self.rng.shuffle(pairs)
            negatives = self.rng.choice(
                self.num_nodes, size=(len(pairs), self.negatives), p=noise
            )
            for start in range(0, len(pairs), self.batch_size):
                step_lr = max(self.lr * (1.0 - completed / total_batches),
                              self.lr * _MIN_LR_FRACTION)
                chunk = slice(start, start + self.batch_size)
                self._update_batch(pairs[chunk, 0], pairs[chunk, 1],
                                   negatives[chunk], step_lr)
                completed += 1
        return self.in_embeddings

    def _update_batch(self, centers, contexts, negative_nodes, lr):
        """Vectorised SGNS update for a batch of (center, context, negatives)."""
        center_vecs = self.in_embeddings[centers]                     # (B, D)
        targets = np.concatenate((contexts[:, None], negative_nodes), axis=1)  # (B, 1+K)
        labels = np.zeros(targets.shape)
        labels[:, 0] = 1.0
        target_vecs = self.out_embeddings[targets]                    # (B, 1+K, D)
        scores = _sigmoid(np.einsum("bkd,bd->bk", target_vecs, center_vecs))
        errors = labels - scores                                      # (B, 1+K)
        grad_centers = np.einsum("bk,bkd->bd", errors, target_vecs)
        grad_targets = errors[:, :, None] * center_vecs[:, None, :]   # (B, 1+K, D)
        np.add.at(self.out_embeddings, targets.reshape(-1),
                  lr * grad_targets.reshape(-1, self.dim))
        np.add.at(self.in_embeddings, centers, lr * grad_centers)

    # ------------------------------------------------------------------
    def embeddings(self):
        """Final node embeddings (input vectors, the usual convention)."""
        return self.in_embeddings.copy()
