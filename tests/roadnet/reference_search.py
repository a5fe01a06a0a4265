"""The loop oracle for :mod:`repro.roadnet.search`.

:func:`shortest_path` is the straightforward Dijkstra: it calls
``edge_cost`` and ``network.edge_endpoints`` on every relaxation and checks
the bans edge by edge.  The engine in ``repro.roadnet.search`` must return
the same paths edge for edge, and its distances must equal this oracle's
edge-cost sums bit for bit.  :func:`to_networkx` exports a network for
cross-checks against networkx, which is a test dependency only.
"""

from __future__ import annotations

import heapq


def shortest_path(network, source, target, edge_cost=None, banned_edges=None,
                  banned_nodes=None):
    """Dijkstra shortest path from ``source`` to ``target`` node.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    source, target:
        Node ids.
    edge_cost:
        Optional callable ``edge_id -> cost``.  Defaults to free-flow time.
    banned_edges:
        Optional set of edge ids that must not be used.
    banned_nodes:
        Optional set of node ids that must not be visited (the source itself
        is exempt).  Yen's spur searches use this to stay loop-free.

    Returns
    -------
    list of edge ids, or ``None`` when the target is unreachable.
    """
    if edge_cost is None:
        edge_cost = lambda e: network.edge_features(e).free_flow_time
    banned = banned_edges or frozenset()
    banned_node_set = banned_nodes or frozenset()

    best = {source: 0.0}
    back_edge = {}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for edge in network.out_edges(node):
            if edge in banned:
                continue
            _, neighbour = network.edge_endpoints(edge)
            if neighbour in banned_node_set:
                continue
            step = edge_cost(edge)
            if step < 0:
                raise ValueError("edge costs must be non-negative for Dijkstra")
            candidate = cost + step
            if candidate < best.get(neighbour, float("inf")):
                best[neighbour] = candidate
                back_edge[neighbour] = edge
                heapq.heappush(heap, (candidate, neighbour))

    if target not in back_edge and source != target:
        return None
    if source == target:
        return []

    # Reconstruct edge sequence.
    edges = []
    node = target
    while node != source:
        edge = back_edge[node]
        edges.append(edge)
        node = network.edge_endpoints(edge)[0]
    edges.reverse()
    return edges


def to_networkx(network):
    """Export ``network`` as a ``networkx.DiGraph`` with edge attributes."""
    import networkx as nx

    graph = nx.DiGraph(name=network.name)
    for node_id in range(network.num_nodes):
        x, y = network.node_coordinates(node_id)
        graph.add_node(node_id, x=x, y=y)
    for edge_id in range(network.num_edges):
        source, target = network.edge_endpoints(edge_id)
        features = network.edge_features(edge_id)
        graph.add_edge(
            source,
            target,
            edge_id=edge_id,
            length=features.length,
            road_type=features.road_type,
            free_flow_time=features.free_flow_time,
        )
    return graph
