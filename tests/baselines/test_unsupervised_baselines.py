"""Tests for the unsupervised baseline models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BERTPathModel,
    DGIPathModel,
    GMIPathModel,
    InfoGraphModel,
    MemoryBankModel,
    Node2vecPathModel,
    PIMModel,
    PIMTemporalModel,
    SpatialSequenceEncoder,
)
from repro.datasets import TemporalPath
from repro.temporal import DepartureTime


UNSUPERVISED_CLASSES = [
    Node2vecPathModel,
    DGIPathModel,
    GMIPathModel,
]

SEQUENCE_CLASSES = [
    MemoryBankModel,
    BERTPathModel,
    InfoGraphModel,
    PIMModel,
]


class TestGraphEmbeddingBaselines:
    @pytest.mark.parametrize("model_cls", UNSUPERVISED_CLASSES)
    def test_fit_encode_shapes(self, model_cls, tiny_city):
        model = model_cls(dim=8, seed=0).fit(tiny_city)
        paths = tiny_city.unlabeled.temporal_paths[:5]
        reps = model.encode(paths)
        assert reps.shape[0] == 5
        assert np.isfinite(reps).all()

    @pytest.mark.parametrize("model_cls", UNSUPERVISED_CLASSES)
    def test_encode_before_fit_raises(self, model_cls, tiny_city):
        model = model_cls()
        with pytest.raises(RuntimeError):
            model.encode(tiny_city.unlabeled.temporal_paths[:2])

    def test_representations_ignore_departure_time(self, tiny_city):
        """Non-temporal baselines must produce identical representations for
        the same path at different departure times — that is their documented
        weakness vs. WSCCL."""
        model = Node2vecPathModel(dim=8, seed=0).fit(tiny_city)
        base = tiny_city.unlabeled.temporal_paths[0]
        morning = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0))
        night = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0))
        reps = model.encode([morning, night])
        np.testing.assert_allclose(reps[0], reps[1])

    def test_represent_single(self, tiny_city):
        model = Node2vecPathModel(dim=8, seed=0).fit(tiny_city)
        vector = model.represent(tiny_city.unlabeled.temporal_paths[0])
        assert vector.ndim == 1


class TestSequenceBaselines:
    @pytest.mark.parametrize("model_cls", SEQUENCE_CLASSES)
    def test_fit_and_encode(self, model_cls, tiny_city):
        model = model_cls(dim=8, epochs=1, seed=0)
        model.fit(tiny_city, max_batches=2)
        reps = model.encode(tiny_city.unlabeled.temporal_paths[:4])
        assert reps.shape == (4, 8)
        assert np.isfinite(reps).all()

    def test_pim_temporal_appends_temporal_features(self, tiny_city):
        model = PIMTemporalModel(dim=8, epochs=1, seed=0)
        model.fit(tiny_city, max_batches=2)
        reps = model.encode(tiny_city.unlabeled.temporal_paths[:3])
        assert reps.shape == (3, 8 + 8)   # PIM's 8 dims + the 8-dim slot embedding

    def test_pim_temporal_representation_depends_on_time(self, tiny_city):
        model = PIMTemporalModel(dim=8, epochs=1, seed=0)
        model.fit(tiny_city, max_batches=2)
        base = tiny_city.unlabeled.temporal_paths[0]
        morning = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0))
        night = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0))
        reps = model.encode([morning, night])
        assert not np.allclose(reps[0], reps[1])

    def test_mb_training_changes_encoder(self, tiny_city):
        model = MemoryBankModel(dim=8, epochs=1, seed=0)
        encoder_before = SpatialSequenceEncoder(tiny_city.network, hidden_dim=8, seed=0)
        before_state = encoder_before.state_dict()
        model.fit(tiny_city, max_batches=3)
        after_state = model._encoder.state_dict()
        changed = any(not np.allclose(before_state[k], after_state[k])
                      for k in before_state if k in after_state)
        assert changed

    def test_pim_curriculum_negative_perturbs_path(self, tiny_city, rng):
        model = PIMModel(dim=8, seed=0)
        base = tiny_city.unlabeled.temporal_paths[0]
        negative = model._curriculum_negative(base, tiny_city.network, rng, difficulty=0.0)
        assert negative.path != base.path
        assert len(negative.path) == len(base.path)


class TestSpatialSequenceEncoder:
    def test_forward_shapes(self, tiny_city):
        encoder = SpatialSequenceEncoder(tiny_city.network, hidden_dim=8, seed=0)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        pooled, outputs, mask = encoder(paths)
        max_len = max(len(p) for p in paths)
        assert pooled.shape == (3, 8)
        assert outputs.shape == (3, max_len, 8)
        assert mask.shape == (3, max_len)

    def test_encode_empty(self, tiny_city):
        encoder = SpatialSequenceEncoder(tiny_city.network, hidden_dim=8, seed=0)
        assert encoder.encode([]).shape == (0, 8)
