"""Tests for saving and loading trained models."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import WSCCL, load_model, save_model
from repro.roadnet import CityConfig, generate_city_network


def rewrite_meta(archive, edit):
    """Apply ``edit`` to the meta record of a saved archive, in place."""
    stored = dict(np.load(archive))
    meta = json.loads(str(stored["meta_json"]))
    edit(meta)
    stored["meta_json"] = np.array(json.dumps(meta))
    np.savez_compressed(archive, **stored)


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

    def test_accepts_an_encoder_directly(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_allclose(restored.encode(paths), model.encode(paths), atol=1e-9)

    def test_rejects_archive_with_an_unknown_config_key(self, tmp_path, tiny_city,
                                                        shared_resources):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        stored = dict(np.load(archive))
        config = json.loads(str(stored["config_json"]))
        config["node2vec_impl"] = "vectorized"
        stored["config_json"] = np.array(json.dumps(config))
        np.savez_compressed(archive, **stored)
        with pytest.raises(TypeError, match="node2vec_impl"):
            load_model(archive, tiny_city.network)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("encoder_type", None),
        lambda meta: meta.update(encoder_type="lstm"),
    ], ids=["no-encoder-key", "lstm-encoder-key"])
    def test_round_trip_with_or_without_encoder_key(self, tmp_path, tiny_city, tiny_config,
                                                    shared_resources, edit):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        rewrite_meta(archive, edit)
        restored = load_model(archive, tiny_city.network)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_array_equal(restored.encode(paths), model.encode(paths))

    @pytest.mark.parametrize("use_temporal", [True, False])
    def test_round_trip_keeps_use_temporal(self, tmp_path, tiny_city, tiny_config,
                                           shared_resources, use_temporal):
        model = shared_resources.new_encoder(use_temporal=use_temporal)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        assert restored.use_temporal is use_temporal
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_array_equal(restored.encode(paths), model.encode(paths))

    def test_meta_records_use_temporal_and_edge_count(self, tmp_path, tiny_city,
                                                      tiny_config, shared_resources):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        meta = json.loads(str(np.load(archive)["meta_json"]))
        assert meta == {"use_temporal": True,
                        "num_network_edges": tiny_city.network.num_edges}

    def test_rejects_non_model_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.npz", object())

    def test_rejects_mismatched_network(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        other_network = generate_city_network(
            CityConfig(name="other", grid_rows=3, grid_cols=3, seed=99))
        with pytest.raises(ValueError):
            load_model(archive, other_network)

    def test_config_round_trip(self, tmp_path, tiny_city, tiny_config, shared_resources):
        model = shared_resources.new_encoder()
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        assert restored.config.hidden_dim == tiny_config.hidden_dim
        assert restored.config.lambda_balance == tiny_config.lambda_balance
        assert restored.config.slots_per_day == tiny_config.slots_per_day
