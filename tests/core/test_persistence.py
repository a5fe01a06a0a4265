"""Tests for saving and loading trained models."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import WSCCL, WSCModel, load_model, save_model
from repro.roadnet import CityConfig, generate_city_network


class TestSaveLoad:
    def test_round_trip_preserves_representations(self, tmp_path, tiny_city, tiny_config,
                                                  shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=1)
        paths = tiny_city.unlabeled.temporal_paths[:5]
        original = model.encode(paths)

        archive = tmp_path / "wsccl.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        np.testing.assert_allclose(restored.encode(paths), original, atol=1e-9)

    def test_accepts_wsc_model_directly(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_allclose(restored.encode(paths), model.encode(paths), atol=1e-9)

    def test_loads_archive_carrying_a_removed_config_option(self, tmp_path, tiny_city,
                                                            tiny_config, shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        stored = dict(np.load(archive))
        config = json.loads(str(stored["config_json"]))
        config["node2vec_impl"] = "vectorized"
        stored["config_json"] = np.array(json.dumps(config))
        np.savez_compressed(archive, **stored)
        restored = load_model(archive, tiny_city.network)
        assert restored.config == tiny_config

    def test_rejects_non_model_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.npz", object())

    def test_rejects_mismatched_network(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        other_network = generate_city_network(
            CityConfig(name="other", grid_rows=3, grid_cols=3, seed=99))
        with pytest.raises(ValueError):
            load_model(archive, other_network)

    def test_config_round_trip(self, tmp_path, tiny_city, tiny_config, shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        assert restored.config.hidden_dim == tiny_config.hidden_dim
        assert restored.config.lambda_balance == tiny_config.lambda_balance
        assert restored.config.slots_per_day == tiny_config.slots_per_day
