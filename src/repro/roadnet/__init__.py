"""Road-network substrate: graph model, edge features, generator, search."""

from .features import MAX_LANES, ROAD_TYPES, EdgeFeatures, FeatureEncoder
from .generator import CityConfig, generate_city_network
from .network import Path, RoadNetwork
from .search import (
    DijkstraCache,
    k_shortest_paths,
    path_similarity,
    shortest_path,
)
from .spatial_index import SegmentGridIndex

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
    "SegmentGridIndex",
]
