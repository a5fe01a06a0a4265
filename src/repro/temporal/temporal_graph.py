"""Temporal graph construction (paper §IV-A).

Each node of the temporal graph is a ``(day of week, 5-minute slot)`` pair —
2016 nodes in total.  Edges connect:

* adjacent time slots within a day (local similarity),
* the same slot on neighbouring days (weekly periodicity), including the
  Sunday → Monday wrap-around,
* the last slot of a day to the first slot of the next day.

Node2vec is then run on this graph to obtain temporal embeddings.
"""

from __future__ import annotations

from .timeslots import DAYS_PER_WEEK, SLOTS_PER_DAY, TOTAL_SLOTS

__all__ = ["TemporalGraph", "build_temporal_graph"]


class TemporalGraph:
    """Undirected graph over the 2016 time-slot nodes."""

    def __init__(self, num_nodes=TOTAL_SLOTS):
        self.num_nodes = num_nodes
        self._adjacency = [set() for _ in range(num_nodes)]

    def add_edge(self, a, b):
        """Add an undirected edge; self-loops are ignored."""
        if a == b:
            return
        for node in (a, b):
            if not 0 <= node < self.num_nodes:
                raise KeyError(f"node {node} out of range")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def neighbors(self, node):
        """Sorted neighbour list of ``node``."""
        return sorted(self._adjacency[node])

    @property
    def num_edges(self):
        return sum(len(adj) for adj in self._adjacency) // 2

    def degree(self, node):
        return len(self._adjacency[node])


def build_temporal_graph(slots_per_day=SLOTS_PER_DAY, days=DAYS_PER_WEEK):
    """Construct the temporal graph exactly as described in the paper.

    ``slots_per_day``/``days`` can be reduced in tests to keep graphs small;
    the adjacency rules are unchanged.
    """
    num_nodes = slots_per_day * days
    graph = TemporalGraph(num_nodes=num_nodes)

    def node_of(day, slot):
        return day * slots_per_day + slot

    for day in range(days):
        for slot in range(slots_per_day):
            current = node_of(day, slot)
            # Adjacent slots within the same day.
            if slot + 1 < slots_per_day:
                graph.add_edge(current, node_of(day, slot + 1))
            else:
                # Last slot of the day connects to the first slot of the next day.
                graph.add_edge(current, node_of((day + 1) % days, 0))
            # Same slot on the neighbouring day (weekly periodicity), with the
            # Sunday -> Monday connection closing the cycle.
            graph.add_edge(current, node_of((day + 1) % days, slot))
    return graph
