"""Seeded train/test splits and minibatch orders.

The paper trains WSCCL on all unlabeled paths, then fits GBR/GBC on 80% of
the labelled paths and evaluates on the remaining 20%.  Grouped splitting is
provided for the ranking/recommendation tasks so candidates of one trip never
straddle the train/test boundary.  :func:`minibatch_indices` is the one
shuffled minibatch order every model in the package trains with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["train_test_split", "grouped_train_test_split", "minibatch_indices"]


def train_test_split(items, test_fraction=0.2, seed=0):
    """Random split of a sequence into (train, test) lists."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    items = list(items)
    rng = np.random.default_rng(seed)
    order = np.arange(len(items))
    rng.shuffle(order)
    cut = max(1, int(round(len(items) * test_fraction)))
    test_idx = set(order[:cut].tolist())
    train = [item for i, item in enumerate(items) if i not in test_idx]
    test = [item for i, item in enumerate(items) if i in test_idx]
    return train, test


def grouped_train_test_split(items, groups, test_fraction=0.2, seed=0):
    """Split so that all items sharing a group id land on the same side."""
    if len(items) != len(groups):
        raise ValueError("items and groups must have the same length")
    items = list(items)
    groups = np.asarray(groups)
    unique_groups = np.unique(groups)
    rng = np.random.default_rng(seed)
    rng.shuffle(unique_groups)
    cut = max(1, int(round(len(unique_groups) * test_fraction)))
    test_groups = set(unique_groups[:cut].tolist())
    train = [item for item, g in zip(items, groups) if g not in test_groups]
    test = [item for item, g in zip(items, groups) if g in test_groups]
    return train, test


def minibatch_indices(count, batch_size, rng, epochs=1, max_batches=None):
    """Yield index arrays of shuffled minibatches over ``range(count)``.

    Each epoch draws one ``rng.permutation(count)`` and slices it into
    ``batch_size`` chunks; a chunk of fewer than 2 indices (the short tail)
    is skipped, since no contrastive or regression step can use it, and at
    most ``max_batches`` chunks are yielded per epoch.  The generator is
    lazy, so draws the caller makes from ``rng`` between batches stay in
    order with the permutations.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    for _ in range(epochs):
        order = rng.permutation(count)
        yielded = 0
        for start in range(0, count, batch_size):
            if max_batches is not None and yielded >= max_batches:
                break
            indices = order[start:start + batch_size]
            if len(indices) < 2:
                continue
            yield indices
            yielded += 1
