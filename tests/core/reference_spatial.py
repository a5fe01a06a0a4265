"""Tensor-composed spatial embedding: the oracle of ``SpatialEmbedding``.

The embedding's forward was once this graph of engine operations: four
embedding reads, their concatenation (Eq. 4), a multiplication by the
validity mask when the batch is padded, and the concatenation with the
frozen topology feature (Eq. 5–6).  :class:`~repro.core.spatial.SpatialEmbedding`
computes it as one autograd node; its output and the gradients of the four
type-embedding tables must equal this graph's byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro import nn


def spatial_graph(spatial, edge_id_batch):
    """``spatial``'s ``(batch, max_len, spatial_dim)`` features of a padded
    edge-id batch, built from engine operations."""
    edge_ids = np.asarray(edge_id_batch, dtype=np.int64)
    padded = edge_ids < 0
    has_padding = bool(padded.any())
    safe_ids = np.where(padded, 0, edge_ids) if has_padding else edge_ids
    categories = spatial.network.edge_feature_matrix()[safe_ids]

    road_type = spatial.road_type_embedding(categories[..., 0])
    lanes = spatial.lanes_embedding(categories[..., 1])
    one_way = spatial.one_way_embedding(categories[..., 2])
    signals = spatial.signals_embedding(categories[..., 3])
    type_embedding = nn.Tensor.concatenate([road_type, lanes, one_way, signals], axis=-1)

    topology_features = spatial.topology_features[safe_ids]
    if has_padding:
        keep = (~padded).astype(np.float64)[..., None]
        topology_features = topology_features * keep
        type_embedding = type_embedding * nn.Tensor(keep)

    topology = nn.Tensor(topology_features)
    return nn.Tensor.concatenate([topology, type_embedding], axis=-1)
