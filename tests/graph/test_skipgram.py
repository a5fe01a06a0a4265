"""Tests for the skip-gram (SGNS) trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import SkipGramTrainer


class TestSkipGramTrainer:
    def test_embedding_shapes(self):
        trainer = SkipGramTrainer(num_nodes=10, dim=4)
        assert trainer.in_embeddings.shape == (10, 4)
        assert trainer.out_embeddings.shape == (10, 4)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SkipGramTrainer(num_nodes=5, dim=0)

    def test_pairs_from_walk_window(self):
        trainer = SkipGramTrainer(num_nodes=10, dim=2, window=1)
        pairs = trainer._pairs_from_walk([0, 1, 2])
        assert (0, 1) in pairs
        assert (1, 0) in pairs
        assert (1, 2) in pairs
        assert (0, 2) not in pairs

    def test_training_on_empty_corpus_is_safe(self):
        trainer = SkipGramTrainer(num_nodes=5, dim=3)
        embeddings = trainer.train([], epochs=1)
        assert embeddings.shape == (5, 3)

    def test_training_changes_embeddings(self):
        trainer = SkipGramTrainer(num_nodes=6, dim=4, seed=0)
        before = trainer.in_embeddings.copy()
        walks = [[0, 1, 2, 3, 4, 5]] * 10
        trainer.train(walks, epochs=2)
        assert not np.allclose(before, trainer.in_embeddings)

    def test_cooccurring_nodes_become_similar(self):
        """Two communities that never co-occur should separate in embedding space."""
        community_a = [0, 1, 2]
        community_b = [3, 4, 5]
        rng = np.random.default_rng(0)
        walks = []
        for _ in range(60):
            walks.append(list(rng.permutation(community_a)) * 3)
            walks.append(list(rng.permutation(community_b)) * 3)
        trainer = SkipGramTrainer(num_nodes=6, dim=8, window=2, negatives=4,
                                  lr=0.05, seed=1)
        embeddings = trainer.train(walks, epochs=3)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        within = cosine(embeddings[0], embeddings[1])
        across = cosine(embeddings[0], embeddings[4])
        assert within > across

    def test_embeddings_accessor_returns_copy(self):
        trainer = SkipGramTrainer(num_nodes=4, dim=2)
        copy = trainer.embeddings()
        copy[:] = 99.0
        assert not np.allclose(trainer.in_embeddings, 99.0)


class TestLearningRateDecay:
    def test_decay_never_below_floor(self):
        """Every applied step lr stays within [lr * 1e-4, lr]."""
        trainer = SkipGramTrainer(num_nodes=6, dim=2, seed=0, batch_size=4,
                                  lr=0.1)
        applied = []
        original = trainer._update_batch

        def spy(centers, contexts, negatives, lr):
            applied.append(lr)
            return original(centers, contexts, negatives, lr)

        trainer._update_batch = spy
        trainer.train([[0, 1, 2, 3, 4, 5]] * 4, epochs=3)
        assert applied, "no updates ran"
        assert max(applied) <= 0.1
        assert min(applied) >= 0.1 * 1e-4
        # Linear decay: the schedule is non-increasing.
        assert all(b <= a for a, b in zip(applied, applied[1:]))


class TestFixedSeedPins:
    """Pin the exact training output (engine and loop corpus share one RNG
    stream)."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_training_output_pinned(self, engine, loop_corpus_trainer):
        make = loop_corpus_trainer if engine == "reference" else SkipGramTrainer
        trainer = make(num_nodes=6, dim=3, window=2, negatives=2, seed=7)
        embeddings = trainer.train([[0, 1, 2, 3], [3, 4, 5, 0]], epochs=1)
        np.testing.assert_allclose(
            embeddings[0], [0.0416984889, 0.1324046003, 0.0918952301], atol=1e-9)
        np.testing.assert_allclose(
            embeddings[5], [0.0178324507, 0.1651667611, 0.0975539731], atol=1e-9)
