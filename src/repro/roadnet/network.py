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

    def out_edges(self, node_id):
        """Edge ids leaving ``node_id``."""
        return tuple(self._out_edges[node_id])

    def in_edges(self, node_id):
        """Edge ids entering ``node_id``."""
        return tuple(self._in_edges[node_id])

    def edge_endpoint_matrix(self):
        """(source, target) node ids of every edge, int64 shape (E, 2)."""
        return np.array(self._edge_endpoints, dtype=np.int64).reshape(-1, 2)

    def edge_lengths(self):
        """Length of every edge in metres, shape (E,)."""
        return np.array([f.length for f in self._edge_features], dtype=np.float64)

    def node_coordinate_matrix(self):
        """(x, y) position of every node in metres, shape (N, 2)."""
        return np.array(self._node_coords, dtype=np.float64).reshape(-1, 2)

    def edge_feature_matrix(self):
        """Integer matrix of categorical feature indices, shape (E, 4)."""
        return self.feature_encoder.encode_edges(self._edge_features)

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

    def statistics(self):
        """Summary statistics used by the Table II runner."""
        lengths = self.edge_lengths() if self.num_edges else np.zeros(1)
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "total_length_km": float(lengths.sum() / 1000.0),
            "mean_edge_length_m": float(lengths.mean()),
        }
