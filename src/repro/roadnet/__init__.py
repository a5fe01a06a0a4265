"""Road-network substrate: graph model, edge features, generator, search.

No spatial index: networks have a few hundred edges, and the map matcher
prefilters with segment bounding boxes (:mod:`repro.trajectory.mapmatching`).
"""

from .features import MAX_LANES, ROAD_TYPES, EdgeFeatures, FeatureEncoder
from .generator import CityConfig, generate_city_network
from .network import Path, RoadNetwork
from .search import (
    DijkstraCache,
    k_shortest_paths,
    path_similarity,
    shortest_path,
)

__all__ = [
    "EdgeFeatures",
    "FeatureEncoder",
    "ROAD_TYPES",
    "MAX_LANES",
    "RoadNetwork",
    "Path",
    "CityConfig",
    "generate_city_network",
    "shortest_path",
    "k_shortest_paths",
    "path_similarity",
    "DijkstraCache",
]
