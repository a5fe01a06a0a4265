"""Path search over road networks.

The path-ranking and path-recommendation tasks (paper §VII-A2) need, for
every trajectory path, *alternative* paths between the same endpoints: here
Yen's k-shortest paths over edge travel costs.  :func:`shortest_path`, Yen's
spur searches and the map matcher's :class:`DijkstraCache` run one engine, a
resumable Dijkstra (:class:`_Search`) over lazy ``(edge, cost, head)`` rows
in ``network.out_edges`` order.  The cache keeps one search per source node
and evicts none: a network has few enough nodes that all of them fit.
"""

from __future__ import annotations

import heapq
import math

from .._checks import check_integer

__all__ = ["shortest_path", "k_shortest_paths", "path_similarity", "DijkstraCache"]


class _Rows(dict):
    """Lazy ``node -> [(edge, cost, head), ...]`` rows in ``out_edges`` order.

    A node's row is built, and its edge costs checked, on first access.
    """

    __slots__ = ("network", "edge_cost")

    def __init__(self, network, edge_cost=None):
        if edge_cost is None:
            edge_cost = lambda e: network.edge_features(e).free_flow_time
        self.network = network
        self.edge_cost = edge_cost

    def __missing__(self, node):
        row = []
        for edge in self.network.out_edges(node):
            step = self.edge_cost(edge)
            if step < 0:
                raise ValueError("edge costs must be non-negative for Dijkstra")
            row.append((edge, step, self.network.edge_endpoints(edge)[1]))
        self[node] = row
        return row


class _Search:
    """A resumable single-source Dijkstra run over ``rows``.

    ``settled`` maps each settled node to its distance, ``back`` to the edge
    that reached it.  A node is pushed only with a strictly smaller cost, so
    heap entries never tie on ``(cost, node)`` and never compare edges.  Bans
    cost nothing per relaxation: a banned node starts at ``-inf``, below any
    candidate, so no edge reaches it (the source is exempt), and a banned
    edge is cut from a copy of its tail's row.
    """

    __slots__ = ("network", "rows", "cut", "best", "settled", "back", "heap")

    def __init__(self, rows, source, banned_edges=(), banned_nodes=()):
        self.network = network = rows.network
        for node in (source, *banned_nodes):
            check_integer("node", node, low=0, high=network.num_nodes)
        for edge in banned_edges:
            check_integer("banned edge", edge, low=0, high=network.num_edges)
        self.rows = rows
        self.cut = {}
        for edge in banned_edges:
            tail = network.edge_endpoints(edge)[0]
            self.cut[tail] = [row for row in self.cut.get(tail, rows[tail])
                              if row[0] != edge]
        self.best = dict.fromkeys(banned_nodes, -math.inf)
        self.best[source] = 0.0
        self.settled = {}
        self.back = {}
        self.heap = [(0.0, source, None)]

    def settle(self, targets):
        """Pop until every node in ``targets`` is settled or the heap is empty."""
        settled = self.settled
        # Every target, settled or not: True would hash as a settled node 1.
        for target in targets:
            check_integer("node", target, low=0, high=self.network.num_nodes)
        remaining = {t for t in targets if t not in settled}
        if not remaining:
            return
        heap, rows, cut = self.heap, self.rows, self.cut
        best, back = self.best, self.back
        infinity = math.inf
        while heap and remaining:
            cost, node, via = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = cost
            back[node] = via
            remaining.discard(node)
            row = cut.get(node)
            for edge, step, head in rows[node] if row is None else row:
                candidate = cost + step
                if candidate < best.get(head, infinity):
                    best[head] = candidate
                    heapq.heappush(heap, (candidate, head, edge))

    def path(self, target):
        """Edge ids from the source to ``target``, or ``None`` if unreached."""
        self.settle((target,))
        if target not in self.back:
            return None
        edges = []
        while self.back[target] is not None:
            edges.append(self.back[target])
            target = self.network.edge_endpoints(edges[-1])[0]
        return edges[::-1]


def shortest_path(network, source, target, edge_cost=None, banned_edges=None,
                  banned_nodes=None):
    """Dijkstra shortest path from ``source`` to ``target`` node.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    source, target:
        Node ids, integers in ``[0, network.num_nodes)``; any other value
        raises a ``ValueError``.
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
    search = _Search(_Rows(network, edge_cost), source, banned_edges or (),
                     banned_nodes or ())
    return search.path(target)


def k_shortest_paths(network, source, target, k, edge_cost=None):
    """Return up to ``k`` loop-free paths ordered by cost (Yen's algorithm).

    The deviation-path construction bans one edge of the current best path at
    a time, which yields genuinely different alternatives — exactly what the
    ranking/recommendation tasks need as negative candidates.  Each spur
    search also bans its root path's nodes, so no path revisits a node.  All
    searches of one call share one set of rows.
    """
    check_integer("k", k, low=1)
    rows = _Rows(network, edge_cost)
    first = _Search(rows, source).path(target)
    if first is None:
        return []

    def cost_of(path):
        return sum(rows.edge_cost(e) for e in path)

    accepted = [first]
    candidates = []
    seen = {tuple(first)}

    while len(accepted) < k:
        previous = accepted[-1]
        for spur_index in range(len(previous)):
            spur_node = network.edge_endpoints(previous[spur_index])[0]
            root = previous[:spur_index]
            banned = {path[spur_index] for path in accepted
                      if spur_index < len(path) and path[:spur_index] == root}
            # The root's nodes stay off-limits, so the spur cannot loop back.
            root_nodes = {network.edge_endpoints(edge)[0] for edge in root}
            spur = _Search(rows, spur_node, banned, root_nodes).path(target)
            if spur is None:
                continue
            candidate = root + spur
            key = tuple(candidate)
            if key in seen or not network.is_connected_path(candidate):
                continue
            seen.add(key)
            candidates.append((cost_of(candidate), len(candidates), candidate))
        if not candidates:
            break
        best = min(candidates)
        candidates.remove(best)
        accepted.append(best[2])

    # The deviation search can occasionally surface a cheaper alternative after
    # a more expensive one has been accepted; sort so the documented
    # "ordered by cost" contract always holds (the true shortest stays first).
    accepted.sort(key=cost_of)
    return accepted


class DijkstraCache:
    """Resumable single-source Dijkstra searches, kept per source node.

    The HMM map matcher prices the driving distance between consecutive
    candidate edges.  Each unique source node is explored once: later queries
    (from any Viterbi step, or any trajectory in a batch) resume its frontier
    only as far as the new targets require.  Distances are bit-identical to
    :func:`shortest_path` edge-cost sums, as both run the same engine.  The
    cache holds at most one search per node of the network and evicts none.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    edge_cost:
        Optional callable ``edge_id -> cost``.  Defaults to free-flow time.
    """

    def __init__(self, network, edge_cost=None):
        self._rows = _Rows(network, edge_cost)
        self._searches = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._searches)

    def distances(self, source, targets):
        """Dict ``target -> distance`` from ``source``, ``inf`` if unreachable.

        A node that is not an integer in ``[0, num_nodes)`` raises a
        ``ValueError``.
        """
        search = self._searches.get(source)
        if search is None:
            search = self._searches[source] = _Search(self._rows, source)
            self.misses += 1
        else:
            self.hits += 1
        search.settle(targets)
        return {target: search.settled.get(target, math.inf) for target in targets}

    def clear(self):
        """Drop all cached searches (and reset the hit/miss counters)."""
        self._searches.clear()
        self.hits = 0
        self.misses = 0


def path_similarity(network, path_a, path_b):
    """Length-weighted Jaccard similarity between two paths.

    This is the score the paper uses to rank generated alternatives against
    the observed trajectory path: the trajectory path scores 1.0 against
    itself, and alternatives score according to how much of their length
    they share with it.
    """
    edges_a = set(path_a)
    edges_b = set(path_b)
    if not edges_a or not edges_b:
        return 0.0
    if edges_a == edges_b:
        return 1.0
    # Iterate in sorted order so equal edge sets always sum identically.
    shared = sorted(edges_a & edges_b)
    union = sorted(edges_a | edges_b)
    shared_length = sum(network.edge_length(e) for e in shared)
    union_length = sum(network.edge_length(e) for e in union)
    if union_length <= 0:
        return 0.0
    return float(shared_length / union_length)
