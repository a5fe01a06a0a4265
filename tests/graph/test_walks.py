"""Tests for uniform random walks."""

from __future__ import annotations

import pytest

from repro.graph import Node2VecConfig, RandomWalker
from reference_walks import reference_walk_from


def ring_neighbors(size):
    def neighbors(node):
        return [(node - 1) % size, (node + 1) % size]
    return neighbors


class TestRandomWalker:
    def test_walk_length_and_start(self):
        walker = RandomWalker(ring_neighbors(10), num_nodes=10, seed=0)
        walk = reference_walk_from(walker, 3, length=8)
        assert walk[0] == 3
        assert len(walk) == 8

    def test_walk_steps_follow_edges(self):
        walker = RandomWalker(ring_neighbors(12), num_nodes=12, seed=1)
        walk = reference_walk_from(walker, 0, length=20)
        for a, b in zip(walk, walk[1:]):
            assert b in ring_neighbors(12)(a)

    def test_isolated_node_walk_stops(self):
        walker = RandomWalker(lambda n: [], num_nodes=3, seed=0)
        assert reference_walk_from(walker, 1, length=5) == [1]

    def test_dead_end_terminates_walk(self):
        # 0 -> 1, 1 has no neighbours.
        adjacency = {0: [1], 1: []}
        walker = RandomWalker(lambda n: adjacency[n], num_nodes=2, seed=0)
        walk = reference_walk_from(walker, 0, length=10)
        assert walk == [0, 1]

    def test_generate_walks_count(self):
        walker = RandomWalker(ring_neighbors(6), num_nodes=6, seed=0)
        walks = walker.generate_walks(walks_per_node=3, walk_length=5)
        assert len(walks) == 18

    @pytest.mark.parametrize("bad", [5, -1, 1.5])
    def test_neighbour_outside_the_graph(self, bad):
        # -1 used to alias node 2 and then fail in numpy with "index 3 is out
        # of bounds", 5 raised an IndexError and 1.5 was truncated to node 1.
        neighbours = {0: [1], 1: [0, bad], 2: [1]}
        with pytest.raises(ValueError,
                           match=r"neighbour of node 1 must be an integer in \[0, 3\), got "):
            RandomWalker(neighbours.__getitem__, 3)

    @pytest.mark.parametrize("name, value", [
        ("walks_per_node", 2.5), ("walks_per_node", True), ("walks_per_node", 0),
        ("walk_length", 2.5), ("walk_length", True), ("walk_length", 0)])
    def test_generate_walks_rejects_non_positive_integer_counts(self, name, value):
        # Regression: 2.5 walks per node raised a TypeError from range, and
        # walks_per_node=True returned one walk per node.
        counts = {"walks_per_node": 1, "walk_length": 3, name: value}
        walker = RandomWalker(ring_neighbors(4), 4, seed=0)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
            walker.generate_walks(**counts)

    def test_walks_take_no_bias_parameters(self):
        # Every walk is uniform: node2vec at p = q = 1.
        with pytest.raises(TypeError):
            RandomWalker(ring_neighbors(4), 4, q=1.0)
        with pytest.raises(TypeError):
            Node2VecConfig(p=1.0)

    def test_deterministic_given_seed(self):
        a = RandomWalker(ring_neighbors(8), 8, seed=7).generate_walks(1, 6)
        b = RandomWalker(ring_neighbors(8), 8, seed=7).generate_walks(1, 6)
        assert a == b


class TestVectorizedWalker:
    """The CSR lockstep engine honours the same walk semantics as the loop."""

    def test_generate_walks_count_and_starts(self):
        walker = RandomWalker(ring_neighbors(6), num_nodes=6, seed=0)
        walks = walker.generate_walks(walks_per_node=3, walk_length=5)
        assert len(walks) == 18
        assert sorted(w[0] for w in walks) == sorted(list(range(6)) * 3)

    def test_walks_follow_edges(self):
        walker = RandomWalker(ring_neighbors(12), num_nodes=12, seed=1)
        for walk in walker.generate_walks(2, 20):
            assert len(walk) == 20
            for a, b in zip(walk, walk[1:]):
                assert b in ring_neighbors(12)(a)

    def test_isolated_node_walk_stops(self):
        walker = RandomWalker(lambda n: [], num_nodes=3, seed=0)
        walks = walker.generate_walks(1, 5)
        assert sorted(walks) == [[0], [1], [2]]

    def test_dead_end_terminates_walk(self):
        # 0 -> 1, 1 has no neighbours; 2 is isolated.
        adjacency = {0: [1], 1: [], 2: []}
        walker = RandomWalker(lambda n: adjacency[n], num_nodes=3, seed=0)
        walks = {w[0]: w for w in walker.generate_walks(1, 10)}
        assert walks[0] == [0, 1]
        assert walks[1] == [1]
        assert walks[2] == [2]

    def test_neighbors_fn_called_once_per_node(self):
        calls = []

        def counting_neighbors(node):
            calls.append(node)
            return ring_neighbors(8)(node)

        walker = RandomWalker(counting_neighbors, num_nodes=8, seed=0)
        walker.generate_walks(4, 10)
        assert sorted(calls) == list(range(8))

    def test_walk_elements_are_python_ints(self):
        walker = RandomWalker(ring_neighbors(5), num_nodes=5, seed=0)
        for walk in walker.generate_walks(1, 4):
            assert all(type(node) is int for node in walk)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_short_length_takes_first_step_in_both_impls(self, engine,
                                                         reference_walks):
        # The reference loop always takes the uniform first step, even for
        # walk_length < 2; the lockstep engine must agree.
        generate = (reference_walks if engine == "reference"
                    else RandomWalker.generate_walks)
        walker = RandomWalker(ring_neighbors(5), num_nodes=5, seed=0)
        assert all(len(walk) == 2 for walk in generate(walker, 1, 1))


class TestFixedSeedPins:
    """Pin the exact RNG streams of the engine and the loop oracle."""

    def test_reference_walks_pinned(self, reference_walks):
        walker = RandomWalker(ring_neighbors(6), 6, seed=42)
        assert reference_walks(walker, 1, 5) == [
            [3, 2, 3, 2, 1], [2, 3, 4, 5, 0], [5, 0, 1, 2, 1],
            [4, 5, 4, 5, 4], [1, 0, 1, 2, 3], [0, 5, 0, 1, 0]]

    def test_vectorized_walks_pinned(self):
        # Written by the second-order engine at p = q = 1, before its bias
        # machinery was removed: the uniform step draws the same walks.
        walker = RandomWalker(ring_neighbors(6), 6, seed=42)
        assert walker.generate_walks(1, 5) == [
            [3, 4, 3, 2, 1], [2, 1, 0, 1, 2], [5, 0, 1, 0, 1],
            [4, 5, 0, 1, 2], [1, 2, 3, 4, 3], [0, 5, 4, 5, 4]]

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_same_seed_same_walks(self, engine, reference_walks):
        generate = (reference_walks if engine == "reference"
                    else RandomWalker.generate_walks)
        make = lambda: RandomWalker(ring_neighbors(9), 9, seed=11)
        assert generate(make(), 2, 7) == generate(make(), 2, 7)
