"""Synthetic city road-network generator.

The paper evaluates on OpenStreetMap extracts of Aalborg, Harbin and Chengdu.
Those extracts are not available offline, so this module generates synthetic
city networks with the same *structure* the WSCCL spatial embedding relies
on: a grid of residential/tertiary streets, arterial primary/secondary roads
every few blocks, an orbital/diagonal motorway, heterogeneous lane counts,
one-way streets and signalised intersections.

Each generated network is deterministic given its seed, and the three named
configurations in :mod:`repro.datasets.synthetic` mirror the relative size
and density differences between the three cities (scaled down for CPU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_integer, check_real
from .features import MAX_LANES, EdgeFeatures
from .network import RoadNetwork

__all__ = ["CityConfig", "generate_city_network"]


#: Free-flow speed limits (km/h) per road type.
_SPEED_LIMITS = {
    "motorway": 110.0,
    "trunk": 90.0,
    "primary": 70.0,
    "secondary": 60.0,
    "tertiary": 50.0,
    "residential": 40.0,
    "service": 30.0,
}

#: Typical lane counts per road type (mean used for sampling).
_TYPICAL_LANES = {
    "motorway": 3,
    "trunk": 3,
    "primary": 2,
    "secondary": 2,
    "tertiary": 1,
    "residential": 1,
    "service": 1,
}


@dataclass(frozen=True)
class CityConfig:
    """Parameters controlling the synthetic city layout.

    Attributes
    ----------
    name:
        Human-readable city name ("aalborg", "harbin", "chengdu", ...).
    grid_rows, grid_cols:
        Size of the street grid; the number of nodes is roughly
        ``grid_rows * grid_cols``.
    block_length:
        Spacing between grid intersections in metres.
    arterial_every:
        Every n-th row/column becomes an arterial (primary/secondary) road.
    highway_ring:
        Whether to add a high-speed orbital motorway around the grid.
    one_way_fraction:
        Fraction of residential streets that are one-way.
    signal_fraction:
        Fraction of edges ending in a signalised intersection.
    seed:
        RNG seed; networks are fully deterministic given the config.
    """

    name: str
    grid_rows: int
    grid_cols: int
    block_length: float = 250.0
    arterial_every: int = 4
    highway_ring: bool = True
    one_way_fraction: float = 0.15
    signal_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_rows", "grid_cols", "arterial_every"):
            check_integer(name, getattr(self, name), low=2)
        check_real("block_length", self.block_length, above=0)
        for name in ("one_way_fraction", "signal_fraction"):
            check_real(name, getattr(self, name), at_least=0, at_most=1)


def generate_city_network(config):
    """Build a :class:`RoadNetwork` from a :class:`CityConfig`."""
    rng = np.random.default_rng(config.seed)
    network = RoadNetwork(name=config.name)

    # --- grid nodes, with small positional jitter so lengths vary ---------
    node_ids = {}
    for row in range(config.grid_rows):
        for col in range(config.grid_cols):
            jitter_x = rng.uniform(-0.08, 0.08) * config.block_length
            jitter_y = rng.uniform(-0.08, 0.08) * config.block_length
            x = col * config.block_length + jitter_x
            y = row * config.block_length + jitter_y
            node_ids[(row, col)] = network.add_node(x, y)

    def road_type_for(row_or_col, horizontal):
        if row_or_col % config.arterial_every == 0:
            return "primary" if (row_or_col // config.arterial_every) % 2 == 0 else "secondary"
        return "residential" if rng.random() < 0.7 else "tertiary"

    def make_features(road_type, length):
        typical = _TYPICAL_LANES[road_type]
        lanes = int(np.clip(typical + rng.integers(-1, 2), 1, MAX_LANES))
        one_way = (road_type in ("residential", "service")
                   and rng.random() < config.one_way_fraction)
        signals = rng.random() < config.signal_fraction
        return EdgeFeatures(
            road_type=road_type,
            lanes=lanes,
            one_way=one_way,
            traffic_signals=signals,
            length=float(length),
            speed_limit=_SPEED_LIMITS[road_type],
        )

    def connect(a, b, road_type):
        ax, ay = network.node_coordinates(a)
        bx, by = network.node_coordinates(b)
        length = float(np.hypot(bx - ax, by - ay))
        forward = make_features(road_type, length)
        network.add_edge(a, b, forward)
        if not forward.one_way:
            backward = EdgeFeatures(
                road_type=forward.road_type,
                lanes=forward.lanes,
                one_way=False,
                traffic_signals=forward.traffic_signals,
                length=length,
                speed_limit=forward.speed_limit,
            )
            network.add_edge(b, a, backward)

    # --- horizontal and vertical streets -----------------------------------
    for row in range(config.grid_rows):
        for col in range(config.grid_cols - 1):
            connect(node_ids[(row, col)], node_ids[(row, col + 1)],
                    road_type_for(row, horizontal=True))
    for col in range(config.grid_cols):
        for row in range(config.grid_rows - 1):
            connect(node_ids[(row, col)], node_ids[(row + 1, col)],
                    road_type_for(col, horizontal=False))

    # --- orbital motorway ring ---------------------------------------------
    if config.highway_ring:
        _add_highway_ring(network, config, node_ids, rng)

    return network


def _add_highway_ring(network, config, node_ids, rng):
    """Add motorway nodes around the grid, linked by trunk on/off ramps."""
    margin = 2.0 * config.block_length
    width = (config.grid_cols - 1) * config.block_length
    height = (config.grid_rows - 1) * config.block_length

    corners = [
        (-margin, -margin),
        (width + margin, -margin),
        (width + margin, height + margin),
        (-margin, height + margin),
    ]
    ring_nodes = [network.add_node(x, y) for x, y in corners]

    def motorway_features(length):
        return EdgeFeatures(
            road_type="motorway",
            lanes=3,
            one_way=False,
            traffic_signals=False,
            length=float(length),
            speed_limit=_SPEED_LIMITS["motorway"],
        )

    # Connect ring corners in both directions.
    for index in range(len(ring_nodes)):
        a = ring_nodes[index]
        b = ring_nodes[(index + 1) % len(ring_nodes)]
        ax, ay = network.node_coordinates(a)
        bx, by = network.node_coordinates(b)
        length = float(np.hypot(bx - ax, by - ay))
        network.add_edge(a, b, motorway_features(length))
        network.add_edge(b, a, motorway_features(length))

    # Ramps from each ring corner to the nearest grid corner.
    grid_corners = [
        node_ids[(0, 0)],
        node_ids[(0, config.grid_cols - 1)],
        node_ids[(config.grid_rows - 1, config.grid_cols - 1)],
        node_ids[(config.grid_rows - 1, 0)],
    ]
    for ring_node, grid_node in zip(ring_nodes, grid_corners):
        ax, ay = network.node_coordinates(ring_node)
        bx, by = network.node_coordinates(grid_node)
        length = float(np.hypot(bx - ax, by - ay))
        ramp = EdgeFeatures(
            road_type="trunk",
            lanes=2,
            one_way=False,
            traffic_signals=False,
            length=length,
            speed_limit=_SPEED_LIMITS["trunk"],
        )
        network.add_edge(ring_node, grid_node, ramp)
        network.add_edge(grid_node, ring_node, ramp)
