"""Tests for WSCCLConfig and the validation of every config dataclass."""

from __future__ import annotations

import pytest

import dataclasses

from repro.core import WSCCLConfig
from repro.datasets import DatasetScale
from repro.evaluation import HarnessConfig
from repro.graph import Node2VecConfig


class TestWSCCLConfig:
    def test_derived_dimensions(self):
        config = WSCCLConfig(road_type_dim=8, lanes_dim=4, one_way_dim=2,
                             signals_dim=2, topology_dim=16, temporal_dim=16)
        assert config.spatial_type_dim == 16
        assert config.spatial_dim == 32
        assert config.encoder_input_dim == 48

    @pytest.mark.parametrize("lambda_balance", [1.5, -2.0])
    def test_lambda_validation(self, lambda_balance):
        with pytest.raises(ValueError, match=f"lambda_balance .*{lambda_balance}"):
            WSCCLConfig(lambda_balance=lambda_balance)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            WSCCLConfig(temperature=0.0)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            WSCCLConfig(batch_size=1)

    def test_meta_set_validation(self):
        with pytest.raises(ValueError):
            WSCCLConfig(num_meta_sets=0)

    def test_slots_per_day_must_divide_day(self):
        with pytest.raises(ValueError):
            WSCCLConfig(slots_per_day=7)

    def test_with_overrides_returns_new_object(self):
        config = WSCCLConfig()
        other = config.with_overrides(lambda_balance=0.5)
        assert other.lambda_balance == 0.5
        assert config.lambda_balance == 0.8
        assert other is not config

    def test_test_scale_is_small(self):
        test = WSCCLConfig.test_scale()
        assert test.hidden_dim <= 16
        assert test.num_meta_sets <= 4


@pytest.mark.parametrize("config_class,name,value", [
    (WSCCLConfig, "hidden_dim", 0),
    (WSCCLConfig, "topology_dim", -4),
    (WSCCLConfig, "temporal_dim", 2.5),
    (WSCCLConfig, "lstm_layers", 0),
    (WSCCLConfig, "epochs", 0),
    (WSCCLConfig, "local_edges_per_path", 0),
    (WSCCLConfig, "num_stages", 0),
    (WSCCLConfig, "node2vec_walks", 0),
    (WSCCLConfig, "node2vec_walk_length", 1),
    (WSCCLConfig, "learning_rate", 0.0),
    (WSCCLConfig, "grad_clip", -1.0),
    (WSCCLConfig, "temperature", float("nan")),
    (WSCCLConfig, "topology_dim", 7),
    # A bool is an int to numpy and to ``range``: True would train 1 epoch.
    (WSCCLConfig, "epochs", True),
    (WSCCLConfig, "lambda_balance", True),
    (WSCCLConfig, "seed", -1),
    (WSCCLConfig, "seed", 1.5),
    (WSCCLConfig, "seed", True),
    (WSCCLConfig, "temperature", True),
    (WSCCLConfig, "grad_clip", True),
    (WSCCLConfig, "learning_rate", True),
    (Node2VecConfig, "dim", 0),
    (Node2VecConfig, "walks_per_node", 0),
    (Node2VecConfig, "walk_length", 1),
    (Node2VecConfig, "window", 0),
    (Node2VecConfig, "negatives", -1),
    (Node2VecConfig, "epochs", 1.5),
    (Node2VecConfig, "p", 0.0),
    (Node2VecConfig, "q", -2.0),
    (Node2VecConfig, "lr", float("nan")),
    (Node2VecConfig, "dim", True),
    (Node2VecConfig, "seed", True),
    (Node2VecConfig, "p", True),
    (Node2VecConfig, "q", True),
    (Node2VecConfig, "lr", True),
    (Node2VecConfig, "p", float("inf")),
    (Node2VecConfig, "q", float("inf")),
    (Node2VecConfig, "lr", float("inf")),
])
def test_configs_reject_non_positive_values(config_class, name, value):
    with pytest.raises(ValueError, match=name):
        config_class(**{name: value})


@pytest.mark.parametrize("name", ["temperature", "learning_rate", "grad_clip"])
def test_wsccl_config_rejects_infinite_floats(name):
    # Regression: ``inf`` passed the ``> 0`` check, and an infinite
    # temperature failed only at the first train step.
    with pytest.raises(ValueError, match=f"{name} must be a positive finite number, got inf"):
        WSCCLConfig(**{name: float("inf")})


_BAD_SCALE_AND_HARNESS_VALUES = [
    (DatasetScale.tiny(), "grid_rows", 0),
    (DatasetScale.tiny(), "grid_cols", -3),
    (DatasetScale.tiny(), "num_trips", 2.5),
    (DatasetScale.tiny(), "num_trips", True),
    (DatasetScale.tiny(), "num_labeled", 0),
    (HarnessConfig(), "baseline_dim", 0),
    (HarnessConfig(), "baseline_epochs", -1),
    (HarnessConfig(), "supervised_epochs", 1.5),
    (HarnessConfig(), "max_batches", 0),
    (HarnessConfig(), "n_estimators", 0),
    (HarnessConfig(), "n_estimators", True),
    (HarnessConfig(), "seed", -1),
    (HarnessConfig(), "test_fraction", 0.0),
    (HarnessConfig(), "test_fraction", 1.0),
    (HarnessConfig(), "test_fraction", float("nan")),
    (HarnessConfig(), "paths_from", "gps"),
]


@pytest.mark.parametrize(
    "config,name,value", _BAD_SCALE_AND_HARNESS_VALUES,
    ids=[f"{type(config).__name__}.{name}={value!r}"
         for config, name, value in _BAD_SCALE_AND_HARNESS_VALUES])
def test_scale_and_harness_configs_reject_bad_values(config, name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(config, **{name: value})
