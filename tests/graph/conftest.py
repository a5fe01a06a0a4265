"""Fixtures shared by the graph-layer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import SkipGramTrainer


@pytest.fixture(scope="session")
def reference_walks():
    """``RandomWalker.generate_walks`` as the per-walk loop oracle.

    Same shuffled start order per pass as the lockstep engine, then one
    ``_reference_walk_from`` per start.
    """
    def generate(walker, walks_per_node, walk_length):
        walks = []
        order = np.arange(walker.num_nodes)
        for _ in range(walks_per_node):
            walker.rng.shuffle(order)
            walks.extend(walker._reference_walk_from(int(start), walk_length)
                         for start in order)
        return walks
    return generate


@pytest.fixture(scope="session")
def loop_corpus_trainer():
    """A ``SkipGramTrainer`` factory whose corpus comes from the loop oracles.

    The pair and noise-count methods are swapped for ``_reference_pairs``
    and ``_reference_noise_counts`` on the instance, so ``train`` runs the
    original nested loops end to end.
    """
    def make(**kwargs):
        trainer = SkipGramTrainer(**kwargs)
        trainer._vectorized_pairs = trainer._reference_pairs
        trainer._vectorized_noise_counts = trainer._reference_noise_counts
        return trainer
    return make
