"""Tests for the Node2Vec front-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import _memo
from repro.graph import Node2Vec, Node2VecConfig, RandomWalker, SkipGramTrainer
from repro.graph import node2vec as node2vec_module
from repro.temporal import build_temporal_graph

SMALL = dict(dim=6, walks_per_node=2, walk_length=6, epochs=2, seed=0)


def ring(n):
    return lambda node: [(node + 1) % n, (node - 1) % n]


@pytest.fixture()
def cold_memo():
    """Start from an empty memo, so the first fit of a test really runs."""
    _memo.clear()


@pytest.fixture()
def walker_count(monkeypatch):
    """Counts the fits that run, i.e. the memo misses."""
    count = [0]

    def counting_walker(*args, **kwargs):
        count[0] += 1
        return RandomWalker(*args, **kwargs)

    monkeypatch.setattr(node2vec_module, "RandomWalker", counting_walker)
    return count


class TestNode2VecConfig:
    def test_defaults(self):
        config = Node2VecConfig()
        assert config.dim == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            Node2VecConfig(dim=0)
        with pytest.raises(ValueError):
            Node2VecConfig(walk_length=1)

    @pytest.mark.parametrize("seed", [None, "a", -1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None used to give an unseeded fit and "a" failed deep in numpy.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            Node2VecConfig(seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert Node2VecConfig(seed=np.int64(3)).seed == 3


class TestNode2Vec:
    def test_fit_generic_graph(self):
        config = Node2VecConfig(dim=6, walks_per_node=2, walk_length=6, epochs=1, seed=0)
        node2vec = Node2Vec(config)
        embeddings = node2vec.fit(lambda n: [(n + 1) % 8, (n - 1) % 8], num_nodes=8)
        assert embeddings.shape == (8, 6)
        assert np.isfinite(embeddings).all()

    def test_embeddings_property_requires_fit(self):
        with pytest.raises(RuntimeError):
            _ = Node2Vec().embeddings

    def test_fit_temporal_graph(self):
        graph = build_temporal_graph(slots_per_day=12, days=7)
        config = Node2VecConfig(dim=4, walks_per_node=1, walk_length=5, epochs=1, seed=0)
        embeddings = Node2Vec(config).fit_temporal_graph(graph)
        assert embeddings.shape == (84, 4)

    def test_fit_road_network_and_edge_embeddings(self, tiny_network):
        config = Node2VecConfig(dim=4, walks_per_node=1, walk_length=5, epochs=1, seed=0)
        node2vec = Node2Vec(config)
        node_embeddings = node2vec.fit_road_network(tiny_network)
        assert node_embeddings.shape == (tiny_network.num_nodes, 4)

        edge_embeddings = node2vec.edge_topology_embeddings(tiny_network)
        assert edge_embeddings.shape == (tiny_network.num_edges, 8)
        # The edge embedding is the concatenation of its endpoints' embeddings.
        source, target = tiny_network.edge_endpoints(0)
        np.testing.assert_allclose(edge_embeddings[0, :4], node_embeddings[source])
        np.testing.assert_allclose(edge_embeddings[0, 4:], node_embeddings[target])

    def test_adjacent_temporal_slots_more_similar_than_distant(self):
        """Node2vec on the temporal graph should place neighbouring slots closer
        than slots half a day apart (the property the paper relies on)."""
        graph = build_temporal_graph(slots_per_day=48, days=7)
        config = Node2VecConfig(dim=16, walks_per_node=4, walk_length=12,
                                window=3, epochs=2, seed=0)
        embeddings = Node2Vec(config).fit_temporal_graph(graph)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        # Average over several anchors for robustness.
        near, far = [], []
        for anchor in (10, 20, 30, 100, 200):
            near.append(cosine(embeddings[anchor], embeddings[anchor + 1]))
            far.append(cosine(embeddings[anchor], embeddings[(anchor + 24) % len(embeddings)]))
        assert np.mean(near) > np.mean(far)


class TestFitValidation:
    """Bad graphs raise a clear ValueError instead of a deep numpy error."""

    @pytest.mark.parametrize("num_nodes", [0, -1, 2.5])
    def test_num_nodes_must_be_a_positive_integer(self, num_nodes):
        # Used to raise ZeroDivisionError, numpy's "negative dimensions" and
        # a TypeError about '3.5'.
        with pytest.raises(ValueError, match="num_nodes must be an integer >= 1"):
            Node2Vec(Node2VecConfig(**SMALL)).fit(lambda node: [], num_nodes)

    @pytest.mark.parametrize("bad", [5, -1, True])
    def test_neighbour_outside_the_graph(self, bad):
        # 5 used to raise an IndexError and -1 "index 3 is out of bounds";
        # True was walked as node 1.
        neighbours = {0: [1], 1: [0, bad], 2: [1]}
        with pytest.raises(ValueError,
                           match=r"neighbour of node 1 must be an integer in \[0, 3\), got "):
            Node2Vec(Node2VecConfig(**SMALL)).fit(neighbours.__getitem__, 3)

    @pytest.mark.parametrize("bad", [np.array(2), [2]], ids=["ndarray", "list"])
    def test_unhashable_neighbour_raises_the_neighbour_error(self, cold_memo, bad):
        # Used to raise "TypeError: unhashable type" from the memo key.
        neighbours = {0: [1], 1: [0, bad], 2: [1]}
        with pytest.raises(ValueError,
                           match=r"neighbour of node 1 must be an integer in \[0, 3\), got "):
            Node2Vec(Node2VecConfig(**SMALL)).fit(neighbours.__getitem__, 3)

    def test_isolated_nodes_are_valid(self):
        neighbours = {0: [1], 1: [0], 2: []}
        embeddings = Node2Vec(Node2VecConfig(**SMALL)).fit(neighbours.__getitem__, 3)
        assert embeddings.shape == (3, 6)
        assert np.isfinite(embeddings).all()


class TestFitMemo:
    """A fit runs once per distinct (config, graph) in a process."""

    def test_warm_hit_equals_cold_fit_bit_for_bit(self, cold_memo, walker_count):
        config = Node2VecConfig(**SMALL)
        cold = Node2Vec(config).fit(ring(8), 8)
        warm = Node2Vec(config).fit(ring(8), 8)
        assert walker_count[0] == 1
        _memo.clear()
        fresh = Node2Vec(config).fit(ring(8), 8)
        assert walker_count[0] == 2

        walks = RandomWalker(ring(8), 8, seed=0).generate_walks(2, 6)
        direct = SkipGramTrainer(num_nodes=8, dim=6, seed=0).train(walks, epochs=2)
        for embeddings in (cold, warm, fresh):
            assert embeddings.tobytes() == direct.tobytes()

    def test_every_call_gets_its_own_array(self, cold_memo):
        config = Node2VecConfig(**SMALL)
        node2vec = Node2Vec(config)
        first = node2vec.fit(ring(8), 8)
        assert node2vec.embeddings is first
        expected = first.copy()
        first[:] = 0.0
        second = Node2Vec(config).fit(ring(8), 8)
        assert second is not first
        assert second.tobytes() == expected.tobytes()
        second += 1.0
        assert Node2Vec(config).fit(ring(8), 8).tobytes() == expected.tobytes()

    def test_neighbors_fn_called_once_per_node_cold_and_warm(self, cold_memo):
        for _ in range(2):
            calls = []

            def neighbors(node):
                calls.append(node)
                return ring(8)(node)

            Node2Vec(Node2VecConfig(**SMALL)).fit(neighbors, 8)
            assert calls == list(range(8))

    def test_rejected_graph_is_not_stored(self, cold_memo):
        neighbours = {0: [1], 1: [0, 5], 2: [1]}
        for _ in range(2):
            with pytest.raises(ValueError,
                               match=r"neighbour of node 1 must be an integer in \[0, 3\), got 5"):
                Node2Vec(Node2VecConfig(**SMALL)).fit(neighbours.__getitem__, 3)

    CHANGED = {"dim": 4, "walks_per_node": 3, "walk_length": 5, "window": 2,
               "negatives": 3, "epochs": 3, "lr": 0.05, "seed": 1}

    def test_every_config_field_is_covered(self):
        assert set(self.CHANGED) == set(vars(Node2VecConfig()))

    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_changing_one_config_field_is_a_miss(self, cold_memo, walker_count, field):
        base = Node2Vec(Node2VecConfig(**SMALL)).fit(ring(8), 8)
        changed = Node2Vec(Node2VecConfig(**{**SMALL, field: self.CHANGED[field]}))
        other = changed.fit(ring(8), 8)
        assert walker_count[0] == 2
        assert other.shape != base.shape or other.tobytes() != base.tobytes()

    def test_changing_num_nodes_is_a_miss(self, cold_memo, walker_count):
        Node2Vec(Node2VecConfig(**SMALL)).fit(ring(8), 8)
        with_isolated = Node2Vec(Node2VecConfig(**SMALL)).fit(
            lambda node: ring(8)(node) if node < 8 else [], 9)
        assert walker_count[0] == 2
        assert with_isolated.shape == (9, 6)

    def test_reordering_one_neighbourhood_is_a_miss(self, cold_memo, walker_count):
        config = Node2VecConfig(**SMALL)
        Node2Vec(config).fit(ring(8), 8)
        Node2Vec(config).fit(lambda node: ring(8)(node)[::-1] if node == 3 else ring(8)(node), 8)
        assert walker_count[0] == 2
