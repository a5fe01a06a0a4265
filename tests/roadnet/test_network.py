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


def _inline_one_hot(encoder, features):
    """One edge's concatenated road-type, lane, one-way and signal one-hots."""
    rows = []
    for index, size in zip(encoder.categorical_indices(features),
                           (encoder.num_road_types, encoder.num_lane_buckets,
                            encoder.num_one_way, encoder.num_signals)):
        row = np.zeros(size)
        row[index] = 1.0
        rows.append(row)
    return np.concatenate(rows)


class TestWholeNetworkArrays:
    """Each whole-network array equals the per-item accessors, row for row."""

    def test_edge_endpoint_matrix(self, tiny_network):
        matrix = tiny_network.edge_endpoint_matrix()
        assert matrix.dtype == np.int64
        expected = [tiny_network.edge_endpoints(e) for e in range(tiny_network.num_edges)]
        np.testing.assert_array_equal(matrix, expected)

    def test_edge_lengths(self, tiny_network):
        expected = [tiny_network.edge_length(e) for e in range(tiny_network.num_edges)]
        np.testing.assert_array_equal(tiny_network.edge_lengths(), expected)

    def test_node_coordinate_matrix(self, tiny_network):
        expected = [tiny_network.node_coordinates(n) for n in range(tiny_network.num_nodes)]
        np.testing.assert_array_equal(tiny_network.node_coordinate_matrix(), expected)

    def test_one_hot_matrix(self, tiny_network):
        encoder = tiny_network.feature_encoder
        matrix = encoder.one_hot_matrix(tiny_network.edge_feature_matrix())
        assert matrix.shape == (tiny_network.num_edges, 17)
        np.testing.assert_array_equal(matrix.sum(axis=1), 4.0)
        expected = [_inline_one_hot(encoder, tiny_network.edge_features(e))
                    for e in range(tiny_network.num_edges)]
        np.testing.assert_array_equal(matrix, expected)

    def test_empty_network(self):
        from repro.graph import Node2Vec, Node2VecConfig

        network = RoadNetwork()
        assert network.edge_endpoint_matrix().shape == (0, 2)
        assert network.edge_lengths().shape == (0,)
        assert network.node_coordinate_matrix().shape == (0, 2)
        one_hots = network.feature_encoder.one_hot_matrix(network.edge_feature_matrix())
        assert one_hots.shape == (0, 17)
        # Node2vec needs a node to fit on; an edgeless pair has no edge rows.
        edgeless = RoadNetwork()
        edgeless.add_node(0.0, 0.0)
        edgeless.add_node(1.0, 1.0)
        node2vec = Node2Vec(Node2VecConfig(dim=3, walks_per_node=1, walk_length=2, epochs=1))
        node2vec.fit_road_network(edgeless)
        assert node2vec.edge_topology_embeddings(edgeless).shape == (0, 6)
        assert node2vec.edge_topology_embeddings(network).shape == (0, 6)

    def test_empty_network_statistics(self):
        stats = RoadNetwork().statistics()
        assert stats == {"num_nodes": 0, "num_edges": 0,
                         "total_length_km": 0.0, "mean_edge_length_m": 0.0}
