"""Edge feature schema for road networks.

The paper's spatial embedding (§IV-B) uses four categorical features per
edge: road type, number of lanes, one-way flag and traffic signals.  This
module defines those categories, the container for per-edge features, and the
conversion from features to categorical indices (the spatial embedding
layer's input) and from indices to one-hot rows (the graph baselines' input).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_integer, check_real

__all__ = ["ROAD_TYPES", "MAX_LANES", "EdgeFeatures", "FeatureEncoder"]


#: Road type vocabulary, ordered from high-capacity to low-capacity roads.
ROAD_TYPES = (
    "motorway",
    "trunk",
    "primary",
    "secondary",
    "tertiary",
    "residential",
    "service",
)

#: Number of lanes is bucketed into 1..MAX_LANES.
MAX_LANES = 6


@dataclass(frozen=True)
class EdgeFeatures:
    """Static attributes of one road segment.

    Attributes
    ----------
    road_type:
        One of :data:`ROAD_TYPES`.
    lanes:
        Number of traffic lanes, between 1 and :data:`MAX_LANES`.
    one_way:
        Whether the edge may be traversed in one direction only.
    traffic_signals:
        Whether the edge ends in (or contains) a signalised intersection.
    length:
        Segment length in metres.
    speed_limit:
        Free-flow speed in km/h.
    """

    road_type: str
    lanes: int
    one_way: bool
    traffic_signals: bool
    length: float
    speed_limit: float

    def __post_init__(self):
        if self.road_type not in ROAD_TYPES:
            raise ValueError(f"unknown road type: {self.road_type!r}")
        check_integer("lanes", self.lanes, low=1, high=MAX_LANES + 1)
        check_real("length", self.length, above=0)
        check_real("speed_limit", self.speed_limit, above=0)

    @property
    def free_flow_time(self):
        """Traversal time in seconds at the speed limit."""
        return self.length / (self.speed_limit / 3.6)


class FeatureEncoder:
    """Convert :class:`EdgeFeatures` into categorical indices and one-hots.

    The categorical cardinalities correspond to the paper's ``n_rt``, ``n_l``,
    ``n_o`` and ``n_ts``.
    """

    def __init__(self):
        self.road_type_index = {name: i for i, name in enumerate(ROAD_TYPES)}

    @property
    def num_road_types(self):
        return len(ROAD_TYPES)

    @property
    def num_lane_buckets(self):
        return MAX_LANES

    @property
    def num_one_way(self):
        return 2

    @property
    def num_signals(self):
        return 2

    def categorical_indices(self, features):
        """Return (road_type_idx, lanes_idx, one_way_idx, signals_idx)."""
        return (
            self.road_type_index[features.road_type],
            features.lanes - 1,
            int(features.one_way),
            int(features.traffic_signals),
        )

    def encode_edges(self, edge_features):
        """Vectorise a sequence of :class:`EdgeFeatures` into an index matrix.

        Returns an integer array of shape ``(num_edges, 4)`` whose columns
        are road type, lane bucket, one-way flag and traffic-signal flag.
        """
        matrix = np.zeros((len(edge_features), 4), dtype=np.int64)
        for row, features in enumerate(edge_features):
            matrix[row] = self.categorical_indices(features)
        return matrix

    def one_hot_matrix(self, indices):
        """Concatenated one-hots of an ``encode_edges`` index matrix.

        Each row of the ``(num_edges, 4)`` ``indices`` becomes road type,
        lane bucket, one-way and signal one-hots side by side: a float array
        of shape ``(num_edges, 17)`` with four ones per row.
        """
        sizes = (self.num_road_types, self.num_lane_buckets,
                 self.num_one_way, self.num_signals)
        offsets = np.cumsum((0,) + sizes[:-1])
        matrix = np.zeros((len(indices), sum(sizes)))
        np.put_along_axis(matrix, np.asarray(indices) + offsets, 1.0, axis=1)
        return matrix
