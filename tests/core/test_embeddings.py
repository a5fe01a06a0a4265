"""Tests for the spatial and temporal embedding layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpatialEmbedding, TemporalEmbedding, compute_edge_topology_features
from repro.core.encoder import PAD_EDGE_ID
from repro.temporal import DepartureTime


class TestSpatialEmbedding:
    @pytest.fixture(scope="class")
    def embedding(self, tiny_city, tiny_config, shared_resources):
        return SpatialEmbedding(tiny_city.network, tiny_config,
                                topology_features=shared_resources.topology_features)

    def test_output_shape(self, embedding, tiny_config):
        edge_ids = np.array([[0, 1, 2], [3, 4, 5]])
        out = embedding(edge_ids)
        assert out.shape == (2, 3, tiny_config.spatial_dim)

    def test_output_dim_property(self, embedding, tiny_config):
        assert embedding.output_dim == tiny_config.spatial_dim

    def test_same_edge_same_embedding(self, embedding):
        out = embedding(np.array([[0, 0]]))
        np.testing.assert_allclose(out.data[0, 0], out.data[0, 1])

    def test_different_edges_differ(self, embedding):
        out = embedding(np.array([[0, 1]]))
        assert not np.allclose(out.data[0, 0], out.data[0, 1])

    def test_gradients_reach_type_embeddings(self, embedding):
        out = embedding(np.array([[0, 1, 2]]))
        out.sum().backward()
        assert embedding.road_type_embedding.weight.grad is not None

    def test_out_of_range_edge_id_rejected(self, embedding, tiny_city):
        num_edges = tiny_city.network.num_edges
        with pytest.raises(ValueError, match=f"edge id {num_edges} "):
            embedding(np.array([[0, num_edges, -1]]))

    def test_last_edge_id_and_padding_accepted(self, embedding, tiny_city,
                                              tiny_config):
        last = tiny_city.network.num_edges - 1
        out = embedding(np.array([[last, PAD_EDGE_ID]]))
        assert out.shape == (1, 2, tiny_config.spatial_dim)
        assert np.any(out.data[0, 0] != 0.0)
        np.testing.assert_array_equal(out.data[0, 1], 0.0)

    def test_topology_shape_mismatch_rejected(self, tiny_city, tiny_config):
        bad = np.zeros((3, tiny_config.topology_dim))
        with pytest.raises(ValueError):
            SpatialEmbedding(tiny_city.network, tiny_config, topology_features=bad)

    def test_compute_edge_topology_features(self, tiny_network):
        features = compute_edge_topology_features(tiny_network, dim=8, seed=0)
        assert features.shape == (tiny_network.num_edges, 8)
        assert np.isfinite(features).all()

    def test_topology_dim_must_be_even(self, tiny_network):
        with pytest.raises(ValueError):
            compute_edge_topology_features(tiny_network, dim=7)


class TestTemporalEmbedding:
    @pytest.fixture(scope="class")
    def embedding(self, tiny_config, shared_resources):
        return TemporalEmbedding(tiny_config, embeddings=shared_resources.temporal_embeddings)

    def test_output_shape(self, embedding, tiny_config):
        times = [DepartureTime.from_hour(0, 8.0), DepartureTime.from_hour(3, 15.0)]
        out = embedding(times)
        assert out.shape == (2, tiny_config.temporal_dim)

    def test_slot_index_granularity(self, embedding, tiny_config):
        slots_per_day = tiny_config.slots_per_day
        midnight_monday = DepartureTime.from_hour(0, 0.0)
        assert embedding.slot_index(midnight_monday) == 0
        late_sunday = DepartureTime.from_hour(6, 23.99)
        assert embedding.slot_index(late_sunday) == slots_per_day * 7 - 1

    def test_same_slot_same_embedding(self, embedding):
        a = embedding([DepartureTime.from_hour(0, 8.01)])
        b = embedding([DepartureTime.from_hour(0, 8.02)])
        np.testing.assert_allclose(a.data, b.data)

    def test_different_day_different_embedding(self, embedding):
        a = embedding([DepartureTime.from_hour(0, 8.0)])
        b = embedding([DepartureTime.from_hour(3, 8.0)])
        assert not np.allclose(a.data, b.data)

    def test_embeddings_are_frozen_constants(self, embedding):
        out = embedding([DepartureTime.from_hour(0, 9.0)])
        assert not out.requires_grad

    def test_shape_mismatch_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            TemporalEmbedding(tiny_config, embeddings=np.zeros((3, tiny_config.temporal_dim)))
