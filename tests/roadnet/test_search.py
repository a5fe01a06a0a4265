"""Tests for shortest path / k-shortest paths / path similarity."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import shortest_path as reference_shortest_path
from reference_search import to_networkx

from repro.roadnet import (
    CityConfig,
    DijkstraCache,
    EdgeFeatures,
    RoadNetwork,
    generate_city_network,
    k_shortest_paths,
    path_similarity,
    shortest_path,
)


def path_nodes(network, path):
    """Node sequence a path visits (one more node than edges)."""
    return [network.edge_endpoints(path[0])[0]] + [network.edge_endpoints(e)[1] for e in path]


def features(length):
    return EdgeFeatures(road_type="residential", lanes=1, one_way=False,
                        traffic_signals=False, length=length, speed_limit=36.0)


@pytest.fixture()
def diamond_network():
    """Two routes from 0 to 3: a short one via 1 and a long one via 2."""
    network = RoadNetwork()
    for i in range(4):
        network.add_node(float(i), 0.0)
    network.add_edge(0, 1, features(100.0))   # 0
    network.add_edge(1, 3, features(100.0))   # 1
    network.add_edge(0, 2, features(300.0))   # 2
    network.add_edge(2, 3, features(300.0))   # 3
    return network


class TestShortestPath:
    def test_prefers_cheaper_route(self, diamond_network):
        path = shortest_path(diamond_network, 0, 3)
        assert path == [0, 1]

    def test_same_source_and_target(self, diamond_network):
        assert shortest_path(diamond_network, 2, 2) == []

    def test_unreachable_returns_none(self, diamond_network):
        # Node 3 has no outgoing edges, so 3 -> 0 is unreachable.
        assert shortest_path(diamond_network, 3, 0) is None

    def test_banned_edges_force_detour(self, diamond_network):
        path = shortest_path(diamond_network, 0, 3, banned_edges={0})
        assert path == [2, 3]

    def test_custom_cost_function(self, diamond_network):
        # Make the short route expensive.
        costs = {0: 1000.0, 1: 1000.0, 2: 1.0, 3: 1.0}
        path = shortest_path(diamond_network, 0, 3, edge_cost=lambda e: costs[e])
        assert path == [2, 3]

    def test_negative_cost_rejected(self, diamond_network):
        with pytest.raises(ValueError):
            shortest_path(diamond_network, 0, 3, edge_cost=lambda e: -1.0)

    def test_matches_networkx_on_generated_city(self):
        network = generate_city_network(
            CityConfig(name="sp", grid_rows=5, grid_cols=5, seed=2))
        graph = to_networkx(network)
        rng = np.random.default_rng(0)
        for _ in range(5):
            source, target = rng.integers(0, network.num_nodes, size=2)
            ours = shortest_path(network, int(source), int(target),
                                 edge_cost=network.edge_length)
            try:
                reference = nx.shortest_path_length(
                    graph, int(source), int(target), weight="length")
            except nx.NetworkXNoPath:
                assert ours is None
                continue
            assert ours is not None
            our_length = sum(network.edge_length(e) for e in ours)
            assert our_length == pytest.approx(reference, rel=1e-9)


@pytest.fixture()
def spur_loop_network():
    """A graph where edge-only spur bans let Yen emit a looped path.

    The 0-3 shortest path is 0-1-2-3.  Banning only edge 1->2 in the spur
    search from node 1 leaves the detour 1-4-0-2-3 open, which concatenated
    with the root [0->1] revisits node 0.
    """
    network = RoadNetwork()
    for i in range(5):
        network.add_node(float(i), 0.0)
    network.add_edge(0, 1, features(100.0))   # 0
    network.add_edge(1, 2, features(100.0))   # 1
    network.add_edge(2, 3, features(100.0))   # 2
    network.add_edge(1, 4, features(100.0))   # 3
    network.add_edge(4, 0, features(100.0))   # 4
    network.add_edge(0, 2, features(1000.0))  # 5
    return network


class TestBannedNodes:
    def test_banned_nodes_force_detour(self, diamond_network):
        path = shortest_path(diamond_network, 0, 3, banned_nodes={1})
        assert path == [2, 3]

    def test_banned_nodes_can_disconnect(self, diamond_network):
        assert shortest_path(diamond_network, 0, 3, banned_nodes={1, 2}) is None


@st.composite
def banned_searches(draw):
    """A small random digraph with tied integer costs, bans and an OD pair.

    Parallel edges and zero costs are allowed, so equal-cost routes are
    common and the tie-breaking order is exercised.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    nodes = st.integers(min_value=0, max_value=num_nodes - 1)
    arcs = draw(st.lists(st.tuples(nodes, nodes).filter(lambda a: a[0] != a[1]),
                         max_size=18))
    network = RoadNetwork()
    for i in range(num_nodes):
        network.add_node(float(i), 0.0)
    for tail, head in arcs:
        network.add_edge(tail, head, features(100.0))
    costs = [float(c) for c in draw(st.lists(st.integers(min_value=0, max_value=2),
                                             min_size=len(arcs), max_size=len(arcs)))]
    edges = st.integers(min_value=0, max_value=max(len(arcs) - 1, 0))
    banned_edges = draw(st.sets(edges, max_size=4)) if arcs else set()
    banned_nodes = draw(st.sets(nodes, max_size=3))
    return network, costs, banned_edges, banned_nodes, draw(nodes), draw(nodes)


class TestEngineMatchesOracle:
    @given(banned_searches())
    @settings(max_examples=300, deadline=None)
    def test_paths_match_edge_for_edge(self, search):
        network, costs, banned_edges, banned_nodes, source, target = search
        for bans in ({}, {"banned_edges": banned_edges, "banned_nodes": banned_nodes}):
            ours = shortest_path(network, source, target,
                                 edge_cost=costs.__getitem__, **bans)
            reference = reference_shortest_path(network, source, target,
                                                edge_cost=costs.__getitem__, **bans)
            assert ours == reference

    @given(banned_searches(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cache_distances_are_oracle_sums(self, search, data):
        network, costs, _, _, _, _ = search
        nodes = st.integers(min_value=0, max_value=network.num_nodes - 1)
        cache = DijkstraCache(network, edge_cost=costs.__getitem__)
        # Repeated sources resume their search.
        queries = data.draw(st.lists(st.tuples(nodes, st.lists(nodes, max_size=4)),
                                     min_size=1, max_size=8))
        for source, targets in queries:
            distances = cache.distances(source, targets)
            assert list(distances) == list(dict.fromkeys(targets))
            for target in targets:
                path = reference_shortest_path(network, source, target,
                                               edge_cost=costs.__getitem__)
                expected = float("inf") if path is None else sum(costs[e] for e in path)
                assert distances[target] == expected


class TestNodeAndKValidation:
    @pytest.mark.parametrize("call, bad", [
        pytest.param(lambda net: shortest_path(net, -1, 3), "-1", id="source-negative"),
        pytest.param(lambda net: shortest_path(net, 0, 10 ** 6), "1000000",
                     id="target-too-large"),
        pytest.param(lambda net: shortest_path(net, 0, 3.5), "3.5", id="target-float"),
        pytest.param(lambda net: k_shortest_paths(net, 0, 10 ** 6, 2), "1000000",
                     id="yen-target-too-large"),
        pytest.param(lambda net: k_shortest_paths(net, -1, 3, 2), "-1",
                     id="yen-source-negative"),
        pytest.param(lambda net: k_shortest_paths(net, 0, 3, 2.5), "2.5", id="yen-k-float"),
        pytest.param(lambda net: shortest_path(net, 0, 3, banned_edges={99}), "99",
                     id="banned-edge-unknown"),
        pytest.param(lambda net: shortest_path(net, 0, 3, banned_nodes={-1}), "-1",
                     id="banned-node-negative"),
        pytest.param(lambda net: DijkstraCache(net).distances(-1, [3]), "-1",
                     id="cache-source-negative"),
        pytest.param(lambda net: DijkstraCache(net).distances(0, [3, 4]), "4",
                     id="cache-target-too-large"),
        pytest.param(lambda net: shortest_path(net, True, 3), "True", id="source-bool"),
        pytest.param(lambda net: k_shortest_paths(net, 0, 3, True), "True", id="yen-k-bool"),
        pytest.param(lambda net: DijkstraCache(net).distances(0, [True]), "True",
                     id="cache-target-bool"),
    ])
    def test_bad_value_is_named(self, diamond_network, call, bad):
        with pytest.raises(ValueError, match=rf"got {bad}$"):
            call(diamond_network)

    def test_bool_target_is_rejected_after_node_one_settles(self, diamond_network):
        # True hashes as node 1, so it used to read node 1's distance.
        cache = DijkstraCache(diamond_network)
        cache.distances(0, [1])
        with pytest.raises(ValueError, match=r"^node must be an integer in \[0, 4\), got True$"):
            cache.distances(0, [True])

    def test_rejected_source_is_not_cached(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        with pytest.raises(ValueError):
            cache.distances(4, [3])
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_numpy_integers_are_node_ids(self, diamond_network):
        assert shortest_path(diamond_network, np.int64(0), np.int64(3)) == [0, 1]
        assert len(k_shortest_paths(diamond_network, 0, 3, np.int64(2))) == 2


class TestDijkstraCache:
    def test_matches_shortest_path_costs_exactly(self):
        network = generate_city_network(
            CityConfig(name="dc", grid_rows=5, grid_cols=5, seed=6))
        cache = DijkstraCache(network, edge_cost=network.edge_length)
        rng = np.random.default_rng(3)
        for _ in range(10):
            source = int(rng.integers(0, network.num_nodes))
            targets = [int(t) for t in rng.integers(0, network.num_nodes, size=5)]
            distances = cache.distances(source, targets)
            for target in targets:
                path = reference_shortest_path(network, source, target,
                                               edge_cost=network.edge_length)
                if path is None:
                    assert distances[target] == float("inf")
                else:
                    # Bit-identical to the oracle's edge-cost sum.
                    assert distances[target] == sum(
                        network.edge_length(e) for e in path)

    def test_resumed_queries_match_fresh_runs(self, diamond_network):
        cache = DijkstraCache(diamond_network,
                              edge_cost=diamond_network.edge_length)
        first = cache.distances(0, [1])
        second = cache.distances(0, [1, 2, 3])
        fresh = DijkstraCache(diamond_network,
                              edge_cost=diamond_network.edge_length
                              ).distances(0, [1, 2, 3])
        assert first[1] == fresh[1]
        assert second == fresh

    def test_hit_miss_counters(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        cache.distances(0, [3])
        cache.distances(0, [1])
        cache.distances(1, [3])
        assert cache.misses == 2
        assert cache.hits == 1

    def test_clear(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        cache.distances(0, [3])
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)


class TestKShortestPaths:
    def test_returns_distinct_ordered_paths(self, diamond_network):
        paths = k_shortest_paths(diamond_network, 0, 3, k=2)
        assert len(paths) == 2
        assert paths[0] == [0, 1]
        assert paths[1] == [2, 3]

    def test_all_paths_are_connected(self):
        network = generate_city_network(
            CityConfig(name="ksp", grid_rows=5, grid_cols=5, seed=4))
        paths = k_shortest_paths(network, 0, network.num_nodes // 2, k=4)
        assert paths
        for path in paths:
            assert network.is_connected_path(path)

    def test_costs_are_nondecreasing(self):
        network = generate_city_network(
            CityConfig(name="ksp2", grid_rows=5, grid_cols=5, seed=8))
        paths = k_shortest_paths(network, 0, network.num_nodes - 5, k=4,
                                 edge_cost=network.edge_length)
        costs = [sum(network.edge_length(e) for e in p) for p in paths]
        assert costs == sorted(costs)

    def test_invalid_k(self, diamond_network):
        with pytest.raises(ValueError):
            k_shortest_paths(diamond_network, 0, 3, k=0)

    def test_unreachable_gives_empty_list(self, diamond_network):
        assert k_shortest_paths(diamond_network, 3, 0, k=3) == []

    def test_spur_paths_cannot_revisit_root_nodes(self, spur_loop_network):
        """Regression: edge-only spur bans used to emit looped paths.

        On this graph the old code returned [0, 3, 4, 5, 2] (node sequence
        0-1-4-0-2-3, revisiting node 0) as the third path.
        """
        paths = k_shortest_paths(spur_loop_network, 0, 3, k=3,
                                 edge_cost=spur_loop_network.edge_length)
        assert paths == [[0, 1, 2], [5, 2]]
        for path in paths:
            nodes = path_nodes(spur_loop_network, path)
            assert len(nodes) == len(set(nodes))

    def test_all_paths_are_loop_free_on_generated_city(self):
        network = generate_city_network(
            CityConfig(name="ksp3", grid_rows=5, grid_cols=5, seed=13))
        rng = np.random.default_rng(5)
        for _ in range(5):
            source, target = (int(n) for n in
                              rng.integers(0, network.num_nodes, size=2))
            if source == target:
                continue
            for path in k_shortest_paths(network, source, target, k=4,
                                         edge_cost=network.edge_length):
                nodes = path_nodes(network, path)
                assert len(nodes) == len(set(nodes))
                assert len(path) == len(set(path))


class TestNetworkxExport:
    def test_to_networkx_roundtrip(self, diamond_network):
        graph = to_networkx(diamond_network)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 4
        assert graph[0][1]["edge_id"] == 0
        assert graph[2][3]["length"] == pytest.approx(300.0)


class TestPathSimilarity:
    def test_identical_paths(self, diamond_network):
        assert path_similarity(diamond_network, [0, 1], [0, 1]) == pytest.approx(1.0)

    def test_disjoint_paths(self, diamond_network):
        assert path_similarity(diamond_network, [0, 1], [2, 3]) == pytest.approx(0.0)

    def test_partial_overlap_weighted_by_length(self, diamond_network):
        # Shared edge 0 (100m); union = edges 0,1,2 = 500m.
        value = path_similarity(diamond_network, [0, 1], [0, 2])
        assert value == pytest.approx(100.0 / 500.0)

    def test_symmetry(self, diamond_network):
        a = path_similarity(diamond_network, [0, 1], [0, 2])
        b = path_similarity(diamond_network, [0, 2], [0, 1])
        assert a == pytest.approx(b)

    def test_empty_path_gives_zero(self, diamond_network):
        assert path_similarity(diamond_network, [], [0, 1]) == 0.0
