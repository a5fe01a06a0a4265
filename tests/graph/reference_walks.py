"""The per-step loop oracle for :mod:`repro.graph.walks`.

``reference_walk_from`` takes one biased node2vec walk at a time, asking the
walker's ``neighbors_fn`` for every neighbourhood and drawing each step with
``rng.choice``.  It consumes the walker's RNG differently from the lockstep
engine, so the two agree in distribution, not walk for walk.
"""

from __future__ import annotations

import numpy as np


def reference_walk_from(walker, start, length):
    """One biased walk of at most ``length`` nodes starting at ``start``."""
    walk = [start]
    neighbors = list(walker.neighbors_fn(start))
    if not neighbors:
        return walk
    walk.append(int(walker.rng.choice(neighbors)))
    while len(walk) < length:
        current = walk[-1]
        previous = walk[-2]
        neighbors = list(walker.neighbors_fn(current))
        if not neighbors:
            break
        weights = np.empty(len(neighbors))
        previous_neighbors = set(walker.neighbors_fn(previous))
        for index, candidate in enumerate(neighbors):
            if candidate == previous:
                weights[index] = 1.0 / walker.p
            elif candidate in previous_neighbors:
                weights[index] = 1.0
            else:
                weights[index] = 1.0 / walker.q
        weights /= weights.sum()
        walk.append(int(walker.rng.choice(neighbors, p=weights)))
    return walk
