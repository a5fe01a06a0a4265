"""The nested-loop oracles for :mod:`repro.graph.skipgram`'s corpus.

``_reference_pairs`` enumerates (center, context) pairs walk by walk,
center by center, contexts left to right; ``SkipGramTrainer``'s strided
windows must emit exactly these pairs in exactly this order.
``_reference_noise_counts`` is the per-node counting loop behind the noise
distribution.  With both swapped in, a trainer consumes the RNG as the
engine does and must train bit-identical embeddings.
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
