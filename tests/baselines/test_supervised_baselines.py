"""Tests for the supervised baseline models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DeepGTTModel,
    GCNTravelTimeModel,
    HMTRLModel,
    PathRankModel,
    STGCNTravelTimeModel,
)
from repro.core import WSCCL


SEQUENCE_SUPERVISED = [DeepGTTModel, HMTRLModel, PathRankModel]


class TestSupervisedSequenceModels:
    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_travel_time_training_and_prediction(self, model_cls, tiny_city, tiny_config):
        model = model_cls(config=tiny_config, epochs=1, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=3)
        paths = [e.temporal_path for e in tiny_city.tasks.travel_time[:5]]
        predictions = model.predict(paths)
        assert predictions.shape == (5,)
        assert np.isfinite(predictions).all()

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_ranking_training(self, model_cls, tiny_city, tiny_config):
        model = model_cls(config=tiny_config, epochs=1, seed=0)
        model.fit_supervised(tiny_city.tasks.ranking, "ranking",
                             city=tiny_city, max_batches=3)
        predictions = model.predict([e.temporal_path for e in tiny_city.tasks.ranking[:4]])
        assert np.isfinite(predictions).all()

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_encode_produces_representations(self, model_cls, tiny_city, tiny_config):
        model = model_cls(config=tiny_config, epochs=1, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=2)
        reps = model.encode([e.temporal_path for e in tiny_city.tasks.travel_time[:4]])
        assert reps.shape[0] == 4
        assert np.isfinite(reps).all()

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_empty_input_shapes(self, model_cls, tiny_city, tiny_config):
        model = model_cls(config=tiny_config, epochs=1, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=1)
        assert model.predict([]).shape == (0,)
        assert model.encode([]).shape == (0, tiny_config.hidden_dim)

    def test_predict_before_training_raises(self, tiny_city, tiny_config):
        model = PathRankModel(config=tiny_config)
        with pytest.raises(RuntimeError):
            model.predict(tiny_city.unlabeled.temporal_paths[:2])

    def test_fit_supervised_without_city_or_encoder_raises(self, tiny_city, tiny_config):
        model = HMTRLModel(config=tiny_config)
        with pytest.raises(ValueError):
            model.fit_supervised(tiny_city.tasks.travel_time, "travel_time")

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_unknown_task_rejected_before_building_the_encoder(
            self, model_cls, tiny_city, tiny_config):
        model = model_cls(config=tiny_config)
        with pytest.raises(ValueError, match="unsupported task"):
            model.fit_supervised(tiny_city.tasks.travel_time, "recommendation",
                                 city=tiny_city)
        assert model._encoder is None

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_examples_rejected_before_building_the_encoder(
            self, model_cls, count, tiny_city, tiny_config):
        model = model_cls(config=tiny_config)
        with pytest.raises(ValueError, match="at least 2 examples"):
            model.fit_supervised(tiny_city.tasks.travel_time[:count], "travel_time",
                                 city=tiny_city)
        assert model._encoder is None

    @pytest.mark.parametrize("model_cls", SEQUENCE_SUPERVISED)
    def test_shared_resources_give_the_same_encoder(self, model_cls, tiny_city,
                                                    tiny_config, shared_resources):
        """Building with or without SharedResources initialises the same weights."""
        own = model_cls(config=tiny_config, seed=3).build_encoder(tiny_city)
        shared = model_cls(config=tiny_config, seed=3).build_encoder(
            tiny_city, resources=shared_resources)
        own_state, shared_state = own.state_dict(), shared.state_dict()
        assert own_state.keys() == shared_state.keys()
        for name, value in own_state.items():
            np.testing.assert_array_equal(shared_state[name], value, err_msg=name)

    def test_deepgtt_predictions_positive_for_travel_time(self, tiny_city, tiny_config):
        model = DeepGTTModel(config=tiny_config, epochs=1, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=3)
        predictions = model.predict([e.temporal_path for e in tiny_city.tasks.travel_time[:6]])
        assert (predictions > 0).all()


class TestPathRankPretraining:
    def test_pretrained_state_is_loaded(self, tiny_city, tiny_config, shared_resources):
        wsccl = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        wsccl.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=1)
        state = wsccl.encoder_state_dict()

        pretrained = PathRankModel(config=tiny_config, pretrained_state=state, seed=0)
        pretrained.build_encoder(tiny_city, resources=shared_resources)
        loaded_state = pretrained._encoder.encoder.state_dict()
        for name, value in state.items():
            np.testing.assert_allclose(loaded_state[name], value)

    def test_scratch_and_pretrained_start_from_different_weights(
            self, tiny_city, tiny_config, shared_resources):
        wsccl = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        wsccl.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=1)
        state = wsccl.encoder_state_dict()

        scratch = PathRankModel(config=tiny_config, seed=0)
        scratch.build_encoder(tiny_city, resources=shared_resources)
        pretrained = PathRankModel(config=tiny_config, pretrained_state=state, seed=0)
        pretrained.build_encoder(tiny_city, resources=shared_resources)

        scratch_state = scratch._encoder.encoder.state_dict()
        pretrained_state = pretrained._encoder.encoder.state_dict()
        assert any(not np.allclose(scratch_state[k], pretrained_state[k])
                   for k in scratch_state)


class TestEdgeSumBaselines:
    @pytest.mark.parametrize("model_cls", [GCNTravelTimeModel, STGCNTravelTimeModel])
    def test_travel_time_training(self, model_cls, tiny_city):
        model = model_cls(hidden_dim=8, epochs=3, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=3)
        predictions = model.predict([e.temporal_path for e in tiny_city.tasks.travel_time[:5]])
        assert predictions.shape == (5,)
        assert (predictions > 0).all()

    @pytest.mark.parametrize("model_cls", [GCNTravelTimeModel, STGCNTravelTimeModel])
    def test_ranking_task_rejected(self, model_cls, tiny_city):
        model = model_cls(hidden_dim=8, seed=0)
        with pytest.raises(ValueError):
            model.fit_supervised(tiny_city.tasks.ranking, "ranking", city=tiny_city)
        assert model._backbone is None

    @pytest.mark.parametrize("model_cls", [GCNTravelTimeModel, STGCNTravelTimeModel])
    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_examples_rejected(self, model_cls, count, tiny_city):
        model = model_cls(hidden_dim=8, seed=0)
        with pytest.raises(ValueError, match="at least 2 examples"):
            model.fit_supervised(tiny_city.tasks.travel_time[:count], "travel_time",
                                 city=tiny_city)
        assert model._backbone is None

    def test_predict_empty(self, tiny_city):
        model = GCNTravelTimeModel(hidden_dim=8, seed=0).fit(tiny_city)
        assert model.predict([]).shape == (0,)

    def test_longer_paths_predicted_slower(self, tiny_city):
        """Edge-sum models must produce times that grow with path length."""
        model = GCNTravelTimeModel(hidden_dim=8, epochs=5, seed=0)
        model.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                             city=tiny_city, max_batches=5)
        examples = sorted(tiny_city.tasks.travel_time, key=lambda e: len(e.temporal_path))
        short = examples[0].temporal_path
        long = examples[-1].temporal_path
        if len(long) <= len(short):
            pytest.skip("corpus has uniform path lengths")
        predictions = model.predict([short, long])
        assert predictions[1] > predictions[0]

    def test_training_reduces_error(self, tiny_city):
        untrained = GCNTravelTimeModel(hidden_dim=8, epochs=0, seed=0)
        untrained.fit(tiny_city)
        trained = GCNTravelTimeModel(hidden_dim=8, epochs=8, seed=0)
        trained.fit_supervised(tiny_city.tasks.travel_time, "travel_time",
                               city=tiny_city)
        paths = [e.temporal_path for e in tiny_city.tasks.travel_time]
        truth = np.array([e.travel_time for e in tiny_city.tasks.travel_time])
        untrained_error = np.abs(untrained.predict(paths) - truth).mean()
        trained_error = np.abs(trained.predict(paths) - truth).mean()
        assert trained_error < untrained_error
