"""The loop oracles for :mod:`repro.core.sampling`.

``_reference_build_contrast_sets`` is the original O(n²) pairwise scan, which
the grouped ``build_contrast_sets`` must reproduce exactly;
``contrast_sets_from_lists`` turns its per-query index lists into the boolean
matrices of :class:`~repro.core.ContrastSets`, and the oracles read the
matrices' rows back as index lists.
``_reference_sample_edge_sets`` is the original per-query ``rng.choice``
sampler: the same distribution as ``sample_edge_sets`` from a different
random stream, so the tests compare structure and counts, not draws.
"""

from __future__ import annotations

import numpy as np

from repro.core import ContrastSets, EdgeSampleSets


def _reference_build_contrast_sets(batch):
    """Positives share the query's path and weak label; the rest are negatives."""
    paths = [tuple(tp.path) for tp, _ in batch]
    labels = [label for _, label in batch]
    size = len(batch)
    positives = []
    negatives = []
    for i in range(size):
        positive = [j for j in range(size)
                    if j != i and paths[j] == paths[i] and labels[j] == labels[i]]
        negative = [j for j in range(size) if j != i and j not in positive]
        positives.append(positive)
        negatives.append(negative)
    return contrast_sets_from_lists(positives, negatives)


def contrast_sets_from_lists(positives, negatives):
    """:class:`~repro.core.ContrastSets` marking each query ``i``'s
    ``positives[i]`` and ``negatives[i]`` (sequences of batch indices)."""
    size = len(positives)
    matrices = np.zeros((2, size, size), dtype=bool)
    for matrix, members in zip(matrices, (positives, negatives)):
        for i, indices in enumerate(members):
            matrix[i, np.asarray(indices, dtype=np.intp)] = True
    return ContrastSets(positives=matrices[0], negatives=matrices[1])


def _reference_sample_edge_sets(contrast_sets, mask, rng, edges_per_path=2):
    """Per query, ``min(edges_per_path, length)`` edges of each of its paths."""
    lengths = mask.sum(axis=1).astype(np.int64)
    sides = ([], [])
    for i in range(len(mask)):
        pos_paths = np.concatenate(([i], np.flatnonzero(contrast_sets.positives[i])))
        for side, paths in zip(sides, (pos_paths, np.flatnonzero(contrast_sets.negatives[i]))):
            rows, cols = _draw_edges(paths, lengths, rng, edges_per_path)
            side.append((rows, cols, np.full(len(rows), i, dtype=np.int64)))
    return EdgeSampleSets(*(np.concatenate(arrays) for side in sides for arrays in zip(*side)))


def _draw_edges(path_indices, lengths, rng, edges_per_path):
    rows = []
    cols = []
    for row in path_indices:
        valid = int(lengths[row])
        if valid <= 0:
            continue
        count = min(edges_per_path, valid)
        chosen = rng.choice(valid, size=count, replace=False)
        rows.extend([int(row)] * count)
        cols.extend(int(c) for c in chosen)
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
