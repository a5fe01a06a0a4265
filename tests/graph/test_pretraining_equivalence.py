"""Equivalence suites: the pretraining pipeline vs the reference loops.

Three layers, matching the engine:

* corpus — strided-window pair extraction reproduces the nested
  loops *exactly* (same pairs, same order), and the batched bincount noise
  distribution equals the counting loop;
* SGNS — because corpus and noise are bit-identical, training consumes the
  RNG identically and the final embeddings match bit for bit;
* walks — the CSR lockstep walker consumes the RNG differently, so
  equivalence is distributional (PR 3's histogram pattern): first-step and
  second-order transition frequencies agree within a total-variation bound,
  and every structural invariant (edges followed, dead ends, lengths) holds
  for arbitrary graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RandomWalker, SkipGramTrainer

# Random corpora: up to 12 walks of up to 15 nodes over a 20-node vocabulary,
# including empty and single-node walks (the loop's edge cases).
corpora = st.lists(
    st.lists(st.integers(min_value=0, max_value=19), min_size=0, max_size=15),
    min_size=0, max_size=12)

# Random directed graphs as adjacency dicts over up to 8 nodes.  Neighbour
# lists may be empty (dead ends) and need not be symmetric.
graphs = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.fixed_dictionaries({
        node: st.lists(st.integers(min_value=0, max_value=n - 1),
                       min_size=0, max_size=n, unique=True)
        for node in range(n)
    }))


class TestCorpusEquivalence:
    @given(corpora, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_pairs_exactly_match_loop_order(self, walks, window):
        trainer = SkipGramTrainer(num_nodes=20, dim=2, window=window)
        reference = trainer._reference_pairs(walks)
        vectorized = trainer._vectorized_pairs(walks)
        np.testing.assert_array_equal(reference, vectorized)

    @given(corpora)
    @settings(max_examples=60, deadline=None)
    def test_noise_counts_match_loop(self, walks):
        trainer = SkipGramTrainer(num_nodes=20, dim=2)
        np.testing.assert_array_equal(
            trainer._reference_noise_counts(walks),
            trainer._vectorized_noise_counts(walks))

    @given(corpora, st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_sgns_embeddings_bit_identical(self, loop_corpus_trainer, walks, seed):
        def train(make):
            trainer = make(num_nodes=20, dim=4, window=3, negatives=3, seed=seed)
            return trainer.train(walks, epochs=2)

        np.testing.assert_array_equal(train(loop_corpus_trainer),
                                      train(SkipGramTrainer))


class TestWalkStructuralEquivalence:
    @given(graphs, st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_walks_respect_graph(self, adjacency, length, seed):
        walker = RandomWalker(lambda n: adjacency[n], num_nodes=len(adjacency),
                              seed=seed)
        walks = walker.generate_walks(walks_per_node=2, walk_length=length)
        assert len(walks) == 2 * len(adjacency)
        for walk in walks:
            assert 1 <= len(walk) <= length
            for a, b in zip(walk, walk[1:]):
                assert b in adjacency[a]
            # A walk ends early only at a dead end (or at full length).
            if len(walk) < length:
                assert not adjacency[walk[-1]]

    @given(graphs, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_both_impls_terminate_identically_on_degenerate_graphs(
            self, reference_walks, adjacency, seed):
        """Walk lengths depend only on the dead-end structure, not the engine."""
        def make():
            return RandomWalker(lambda n: adjacency[n], num_nodes=len(adjacency),
                                seed=seed)

        reference = sorted(reference_walks(make(), 1, 6))
        vectorized = sorted(make().generate_walks(1, 6))
        # Same multiset of start nodes; early termination states agree.
        assert [w[0] for w in reference] == [w[0] for w in vectorized]
        for ref_walk, vec_walk in zip(reference, vectorized):
            if len(ref_walk) == 1 or len(vec_walk) == 1:
                # A start with no neighbours stops immediately in both.
                assert len(ref_walk) == len(vec_walk) == 1


class TestWalkDistributionalEquivalence:
    """Transition statistics of the engine and the loop agree (histogram-mode
    pattern)."""

    @staticmethod
    def _ring(size):
        def neighbors(node):
            return [(node - 1) % size, (node + 1) % size]
        return neighbors

    def _transition_counts(self, generate, p, q, passes, seed):
        size = 10
        walker = RandomWalker(self._ring(size), num_nodes=size, p=p, q=q,
                              seed=seed)
        counts = np.zeros((size, size))
        for walk in generate(walker, passes, 12):
            for a, b in zip(walk, walk[1:]):
                counts[a, b] += 1
        return counts

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (4.0, 0.25), (0.25, 4.0)])
    def test_first_order_transition_frequencies_agree(self, p, q, reference_walks):
        reference = self._transition_counts(reference_walks, p, q, passes=60, seed=0)
        vectorized = self._transition_counts(RandomWalker.generate_walks, p, q,
                                             passes=60, seed=1)
        reference /= reference.sum()
        vectorized /= vectorized.sum()
        total_variation = 0.5 * np.abs(reference - vectorized).sum()
        assert total_variation < 0.05

    def test_backtrack_rate_tracks_p_in_both_impls(self, reference_walks):
        """P(walk[t] == walk[t-2]) responds to p the same way in both."""
        def backtrack_rate(generate, p):
            size = 12
            walker = RandomWalker(self._ring(size), num_nodes=size, p=p, q=1.0,
                                  seed=5)
            hits = steps = 0
            for walk in generate(walker, 40, 15):
                for i in range(2, len(walk)):
                    steps += 1
                    hits += walk[i] == walk[i - 2]
            return hits / steps

        for generate in (reference_walks, RandomWalker.generate_walks):
            assert backtrack_rate(generate, 20.0) < backtrack_rate(generate, 0.05)
        # And the rates themselves agree for the same p.
        assert backtrack_rate(reference_walks, 4.0) == pytest.approx(
            backtrack_rate(RandomWalker.generate_walks, 4.0), abs=0.04)
