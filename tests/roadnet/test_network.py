"""Tests for the RoadNetwork graph model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import EdgeFeatures, Path, RoadNetwork


def simple_features(length=100.0):
    return EdgeFeatures(road_type="residential", lanes=1, one_way=False,
                        traffic_signals=False, length=length, speed_limit=36.0)


@pytest.fixture()
def triangle_network():
    """Three nodes connected in a directed cycle 0 -> 1 -> 2 -> 0."""
    network = RoadNetwork(name="triangle")
    for i in range(3):
        network.add_node(i * 100.0, 0.0)
    network.add_edge(0, 1, simple_features(100.0))
    network.add_edge(1, 2, simple_features(200.0))
    network.add_edge(2, 0, simple_features(300.0))
    return network


class TestConstruction:
    def test_node_and_edge_counts(self, triangle_network):
        assert triangle_network.num_nodes == 3
        assert triangle_network.num_edges == 3

    def test_self_loop_rejected(self, triangle_network):
        with pytest.raises(ValueError):
            triangle_network.add_edge(0, 0, simple_features())

    def test_unknown_node_rejected(self, triangle_network):
        with pytest.raises(KeyError):
            triangle_network.add_edge(0, 99, simple_features())

    def test_wrong_feature_type_rejected(self, triangle_network):
        with pytest.raises(TypeError):
            triangle_network.add_edge(0, 2, {"length": 10})

    def test_adjacency(self, triangle_network):
        assert triangle_network.out_edges(0) == (0,)
        assert triangle_network.in_edges(0) == (2,)


class TestGeometry:
    def test_point_along_edge_clamps_fraction(self, triangle_network):
        start = triangle_network.point_along_edge(0, -1.0)
        end = triangle_network.point_along_edge(0, 2.0)
        assert start == triangle_network.node_coordinates(0)
        assert end == triangle_network.node_coordinates(1)


class TestPaths:
    def test_connected_path_detection(self, triangle_network):
        assert triangle_network.is_connected_path([0, 1, 2])
        assert not triangle_network.is_connected_path([0, 2])
        assert not triangle_network.is_connected_path([])

    def test_path_object_validation(self):
        with pytest.raises(ValueError):
            Path([])
        path = Path([3, 4, 5])
        assert len(path) == 3
        assert path[1] == 4
        assert Path([3, 4, 5]) == path
        assert hash(Path([3, 4, 5])) == hash(path)


class TestExportsAndStats:
    def test_feature_matrix_shape(self, triangle_network):
        matrix = triangle_network.edge_feature_matrix()
        assert matrix.shape == (3, 4)

    def test_statistics(self, triangle_network):
        stats = triangle_network.statistics()
        assert stats["num_nodes"] == 3
        assert stats["num_edges"] == 3
        assert stats["total_length_km"] == pytest.approx(0.6)
