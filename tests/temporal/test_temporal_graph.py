"""Tests for the temporal graph construction (paper §IV-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.temporal import TemporalGraph, build_temporal_graph


class TestTemporalGraphContainer:
    def test_add_edge_and_neighbors(self):
        graph = TemporalGraph(num_nodes=5)
        graph.add_edge(0, 1)
        graph.add_edge(1, 3)
        assert graph.neighbors(1) == [0, 3]
        assert graph.num_edges == 2
        assert graph.degree(1) == 2

    def test_self_loops_ignored(self):
        graph = TemporalGraph(num_nodes=3)
        graph.add_edge(1, 1)
        assert graph.num_edges == 0

    def test_out_of_range_rejected(self):
        graph = TemporalGraph(num_nodes=3)
        with pytest.raises(KeyError):
            graph.add_edge(0, 5)



class TestBuildTemporalGraph:
    @pytest.fixture(scope="class")
    def small_graph(self):
        return build_temporal_graph(slots_per_day=24, days=7)

    def test_node_count(self, small_graph):
        assert small_graph.num_nodes == 24 * 7

    def test_full_size_graph_matches_paper(self):
        graph = build_temporal_graph()
        assert graph.num_nodes == 2016

    def test_adjacent_slots_connected(self, small_graph):
        # Slot 5 and slot 6 of day 0.
        assert 6 in small_graph.neighbors(5)

    def test_same_slot_neighbouring_days_connected(self, small_graph):
        # Slot 5 of day 0 and slot 5 of day 1.
        assert (1 * 24 + 5) in small_graph.neighbors(5)

    def test_sunday_monday_wraparound(self, small_graph):
        sunday_slot = 6 * 24 + 3
        monday_slot = 3
        assert monday_slot in small_graph.neighbors(sunday_slot)

    def test_end_of_day_connects_to_next_day_start(self, small_graph):
        last_slot_day0 = 23
        first_slot_day1 = 24
        assert first_slot_day1 in small_graph.neighbors(last_slot_day0)

    def test_every_node_has_neighbors(self, small_graph):
        degrees = [small_graph.degree(n) for n in range(small_graph.num_nodes)]
        assert min(degrees) >= 2

    def test_graph_is_connected(self, small_graph):
        """BFS from node 0 should reach every node (needed for node2vec walks)."""
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in small_graph.neighbors(node):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        assert len(seen) == small_graph.num_nodes
