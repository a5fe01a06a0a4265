"""Tests for the synthetic city generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import CityConfig, ROAD_TYPES, generate_city_network


class TestCityConfig:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            CityConfig(name="x", grid_rows=1, grid_cols=5)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            CityConfig(name="x", grid_rows=4, grid_cols=4, one_way_fraction=1.5)
        with pytest.raises(ValueError):
            CityConfig(name="x", grid_rows=4, grid_cols=4, signal_fraction=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("grid_rows", 2.5), ("grid_cols", True), ("arterial_every", 4.0),
        ("one_way_fraction", True), ("signal_fraction", float("nan")),
        ("block_length", float("inf"))])
    def test_rejects_non_integer_sizes_and_non_real_fractions(self, name, value):
        # grid_rows=2.5 failed inside range(), and one_way_fraction=True made
        # every residential street one-way.
        config = {"name": "x", "grid_rows": 4, "grid_cols": 4, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            CityConfig(**config)

    def test_rejects_bad_arterial_spacing(self):
        with pytest.raises(ValueError):
            CityConfig(name="x", grid_rows=4, grid_cols=4, arterial_every=1)


class TestGeneratedNetwork:
    @pytest.fixture(scope="class")
    def network(self):
        return generate_city_network(
            CityConfig(name="gen-test", grid_rows=6, grid_cols=5, seed=3))

    def test_node_count_includes_ring(self, network):
        # 6x5 grid plus 4 motorway ring corners.
        assert network.num_nodes == 6 * 5 + 4

    def test_edges_exist_and_features_valid(self, network):
        assert network.num_edges > 0
        for edge in range(network.num_edges):
            features = network.edge_features(edge)
            assert features.road_type in ROAD_TYPES
            assert features.length > 0

    def test_contains_multiple_road_types(self, network):
        types = {network.edge_features(e).road_type for e in range(network.num_edges)}
        assert "motorway" in types
        assert "residential" in types or "tertiary" in types
        assert len(types) >= 3

    def test_deterministic_given_seed(self):
        config = CityConfig(name="det", grid_rows=4, grid_cols=4, seed=9)
        a = generate_city_network(config)
        b = generate_city_network(config)
        assert a.num_nodes == b.num_nodes
        assert a.num_edges == b.num_edges
        lengths_a = [a.edge_length(e) for e in range(a.num_edges)]
        lengths_b = [b.edge_length(e) for e in range(b.num_edges)]
        np.testing.assert_allclose(lengths_a, lengths_b)

    def test_different_seeds_differ(self):
        a = generate_city_network(CityConfig(name="s1", grid_rows=4, grid_cols=4, seed=1))
        b = generate_city_network(CityConfig(name="s2", grid_rows=4, grid_cols=4, seed=2))
        lengths_a = [a.edge_length(e) for e in range(min(a.num_edges, b.num_edges))]
        lengths_b = [b.edge_length(e) for e in range(min(a.num_edges, b.num_edges))]
        assert not np.allclose(lengths_a, lengths_b)

    def test_no_highway_ring_option(self):
        network = generate_city_network(
            CityConfig(name="no-ring", grid_rows=4, grid_cols=4, highway_ring=False, seed=0))
        assert network.num_nodes == 16
        types = {network.edge_features(e).road_type for e in range(network.num_edges)}
        assert "motorway" not in types

    def test_grid_is_strongly_connected_enough(self, network):
        """Every grid node should reach at least one neighbour and be reachable."""
        dead_out = [n for n in range(network.num_nodes) if not network.out_edges(n)]
        dead_in = [n for n in range(network.num_nodes) if not network.in_edges(n)]
        assert not dead_out
        assert not dead_in

    def test_one_way_fraction_respected_roughly(self):
        heavy = generate_city_network(CityConfig(
            name="ow", grid_rows=8, grid_cols=8, one_way_fraction=0.9, seed=5))
        light = generate_city_network(CityConfig(
            name="ow2", grid_rows=8, grid_cols=8, one_way_fraction=0.0, seed=5))
        one_way_heavy = sum(heavy.edge_features(e).one_way for e in range(heavy.num_edges))
        one_way_light = sum(light.edge_features(e).one_way for e in range(light.num_edges))
        assert one_way_light == 0
        assert one_way_heavy > 0
