"""Property-based tests for road-network invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet import (
    CityConfig,
    generate_city_network,
    k_shortest_paths,
    path_similarity,
    shortest_path,
)


city_configs = st.builds(
    CityConfig,
    name=st.just("prop-city"),
    grid_rows=st.integers(min_value=3, max_value=6),
    grid_cols=st.integers(min_value=3, max_value=6),
    arterial_every=st.integers(min_value=2, max_value=4),
    highway_ring=st.booleans(),
    one_way_fraction=st.floats(min_value=0.0, max_value=0.4),
    signal_fraction=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=50),
)


@given(city_configs)
@settings(max_examples=15, deadline=None)
def test_generated_network_edges_reference_valid_nodes(config):
    network = generate_city_network(config)
    for edge in range(network.num_edges):
        source, target = network.edge_endpoints(edge)
        assert 0 <= source < network.num_nodes
        assert 0 <= target < network.num_nodes
        assert source != target
        assert network.edge_length(edge) > 0


@given(city_configs, st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_shortest_path_is_connected_and_reaches_target(config, od_seed):
    network = generate_city_network(config)
    rng = np.random.default_rng(od_seed)
    source = int(rng.integers(0, network.num_nodes))
    target = int(rng.integers(0, network.num_nodes))
    path = shortest_path(network, source, target, edge_cost=network.edge_length)
    if source == target:
        assert path == []
        return
    if path is None:
        return
    assert network.is_connected_path(path)
    assert network.edge_endpoints(path[0])[0] == source
    assert network.edge_endpoints(path[-1])[1] == target


@given(city_configs)
@settings(max_examples=10, deadline=None)
def test_k_shortest_paths_costs_sorted_and_unique(config):
    network = generate_city_network(config)
    source, target = 0, network.num_nodes - 1
    paths = k_shortest_paths(network, source, target, k=3, edge_cost=network.edge_length)
    costs = [sum(network.edge_length(e) for e in p) for p in paths]
    assert costs == sorted(costs)
    assert len({tuple(p) for p in paths}) == len(paths)


@given(city_configs)
@settings(max_examples=10, deadline=None)
def test_path_similarity_is_bounded_symmetric(config):
    network = generate_city_network(config)
    source, target = 0, network.num_nodes - 1
    paths = k_shortest_paths(network, source, target, k=2, edge_cost=network.edge_length)
    if len(paths) < 2:
        return
    a, b = paths[0], paths[1]
    forward = path_similarity(network, a, b)
    backward = path_similarity(network, b, a)
    assert 0.0 <= forward <= 1.0
    assert np.isclose(forward, backward)
    assert path_similarity(network, a, a) == 1.0
