"""Directed road network model (paper Definition 1).

A :class:`RoadNetwork` is a directed graph whose vertices are intersections
and whose edges are road segments carrying :class:`~repro.roadnet.features.EdgeFeatures`.
Paths (Definition 3) are sequences of adjacent edge ids.
"""

from __future__ import annotations

import numpy as np

from .features import EdgeFeatures, FeatureEncoder

__all__ = ["RoadNetwork", "Path"]


class Path:
    """A path is a sequence of adjacent edge ids (paper Definition 3)."""

    __slots__ = ("edges",)

    def __init__(self, edges):
        self.edges = tuple(int(e) for e in edges)
        if not self.edges:
            raise ValueError("a path must contain at least one edge")

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __getitem__(self, index):
        return self.edges[index]

    def __eq__(self, other):
        if isinstance(other, Path):
            return self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Path(num_edges={len(self.edges)})"


class RoadNetwork:
    """A directed road network with per-edge features and coordinates.

    Nodes are integers ``0..num_nodes-1``; edges are integers
    ``0..num_edges-1``.  Each edge stores its endpoints and an
    :class:`EdgeFeatures` record.
    """

    def __init__(self, name="roadnet"):
        self.name = name
        self._node_coords = []
        self._edge_endpoints = []
        self._edge_features = []
        self._out_edges = {}
        self._in_edges = {}
        self._edge_lookup = {}
        self.feature_encoder = FeatureEncoder()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, x, y):
        """Add an intersection at coordinates ``(x, y)`` (metres). Returns id."""
        node_id = len(self._node_coords)
        self._node_coords.append((float(x), float(y)))
        self._out_edges[node_id] = []
        self._in_edges[node_id] = []
        return node_id

    def add_edge(self, source, target, features):
        """Add a directed road segment.  Returns the new edge id."""
        if source == target:
            raise ValueError("self-loop edges are not allowed in a road network")
        for node in (source, target):
            if not 0 <= node < len(self._node_coords):
                raise KeyError(f"unknown node id {node}")
        if not isinstance(features, EdgeFeatures):
            raise TypeError("features must be an EdgeFeatures instance")
        edge_id = len(self._edge_endpoints)
        self._edge_endpoints.append((source, target))
        self._edge_features.append(features)
        self._out_edges[source].append(edge_id)
        self._in_edges[target].append(edge_id)
        self._edge_lookup[(source, target)] = edge_id
        return edge_id

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self):
        return len(self._node_coords)

    @property
    def num_edges(self):
        return len(self._edge_endpoints)

    def node_coordinates(self, node_id):
        """(x, y) position of a node in metres."""
        return self._node_coords[node_id]

    def edge_endpoints(self, edge_id):
        """(source, target) node ids of an edge."""
        return self._edge_endpoints[edge_id]

    def edge_features(self, edge_id):
        """The :class:`EdgeFeatures` of an edge."""
        return self._edge_features[edge_id]

    def edge_length(self, edge_id):
        """Length of the edge in metres."""
        return self._edge_features[edge_id].length

    def edge_id(self, source, target):
        """Edge id for a (source, target) pair, or None if absent."""
        return self._edge_lookup.get((source, target))

    def out_edges(self, node_id):
        """Edge ids leaving ``node_id``."""
        return tuple(self._out_edges[node_id])

    def in_edges(self, node_id):
        """Edge ids entering ``node_id``."""
        return tuple(self._in_edges[node_id])

    def all_edge_features(self):
        """List of all edge feature records, indexed by edge id."""
        return list(self._edge_features)

    def edge_feature_matrix(self):
        """Integer matrix of categorical feature indices, shape (E, 4)."""
        return self.feature_encoder.encode_edges(self._edge_features)

    def edge_midpoint(self, edge_id):
        """Geometric midpoint of the edge, used by the GPS sampler."""
        source, target = self._edge_endpoints[edge_id]
        sx, sy = self._node_coords[source]
        tx, ty = self._node_coords[target]
        return ((sx + tx) / 2.0, (sy + ty) / 2.0)

    def point_along_edge(self, edge_id, fraction):
        """Point at ``fraction`` in [0, 1] along the straight-line edge."""
        source, target = self._edge_endpoints[edge_id]
        sx, sy = self._node_coords[source]
        tx, ty = self._node_coords[target]
        fraction = float(np.clip(fraction, 0.0, 1.0))
        return (sx + fraction * (tx - sx), sy + fraction * (ty - sy))

    # ------------------------------------------------------------------
    # Path validation and statistics
    # ------------------------------------------------------------------
    def is_connected_path(self, edge_ids):
        """True when consecutive edges share a node head-to-tail."""
        edge_ids = list(edge_ids)
        if not edge_ids:
            return False
        for previous, current in zip(edge_ids, edge_ids[1:]):
            if self._edge_endpoints[previous][1] != self._edge_endpoints[current][0]:
                return False
        return True

    def path_length(self, path):
        """Total length in metres of a path."""
        return float(sum(self.edge_length(e) for e in path))

    def path_free_flow_time(self, path):
        """Sum of free-flow traversal times in seconds along the path."""
        return float(sum(self._edge_features[e].free_flow_time for e in path))

    def path_nodes(self, path):
        """Node sequence visited by a path (length = edges + 1)."""
        edges = list(path)
        nodes = [self._edge_endpoints[edges[0]][0]]
        for edge in edges:
            nodes.append(self._edge_endpoints[edge][1])
        return nodes

    def statistics(self):
        """Summary statistics used by the Table II runner."""
        lengths = np.array([f.length for f in self._edge_features]) if self._edge_features else np.zeros(1)
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "total_length_km": float(lengths.sum() / 1000.0),
            "mean_edge_length_m": float(lengths.mean()),
        }

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` with edge attributes.

        Useful for interoperability and for tests that cross-check shortest
        paths against networkx.  networkx is not a dependency of the package;
        install it separately to use this method.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node_id, (x, y) in enumerate(self._node_coords):
            graph.add_node(node_id, x=x, y=y)
        for edge_id, (source, target) in enumerate(self._edge_endpoints):
            features = self._edge_features[edge_id]
            graph.add_edge(
                source,
                target,
                edge_id=edge_id,
                length=features.length,
                road_type=features.road_type,
                free_flow_time=features.free_flow_time,
            )
        return graph
