"""The per-step loop oracle for :mod:`repro.graph.walks`.

``reference_walk_from`` takes one uniform walk at a time, asking the
walker's ``neighbors_fn`` for every neighbourhood and drawing each step with
``rng.choice``.  It consumes the walker's RNG differently from the lockstep
engine, so the two agree in distribution, not walk for walk.
"""

from __future__ import annotations


def reference_walk_from(walker, start, length):
    """One uniform walk of at most ``length`` nodes (at least two when
    ``start`` has neighbours) starting at ``start``."""
    walk = [start]
    while True:
        neighbors = list(walker.neighbors_fn(walk[-1]))
        if not neighbors:
            break
        walk.append(int(walker.rng.choice(neighbors)))
        if len(walk) >= length:
            break
    return walk
