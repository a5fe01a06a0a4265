"""Shared spatial-only sequence encoder used by several baselines.

MB, InfoGraph, PIM and BERT all encode a path as a sequence of *spatial* edge
features (no temporal information) — this module provides that encoder, and
the model state they share, so the baselines differ only in their training
objective, as in the paper.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import encode_in_chunks, pad_paths
from ..core.spatial import SpatialEmbedding
from .base import RepresentationModel

__all__ = ["SpatialSequenceEncoder", "SpatialSequenceModel"]


class SpatialSequenceEncoder(nn.Module):
    """LSTM over spatial edge embeddings with masked mean pooling.

    Parameters
    ----------
    network:
        Road network the paths live on.
    hidden_dim:
        Encoder output dimensionality.
    topology_features:
        Optional pre-computed node2vec topology features to share.
    """

    def __init__(self, network, hidden_dim=16, topology_features=None, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = WSCCLConfig.test_scale().with_overrides(hidden_dim=hidden_dim)
        self.hidden_dim = hidden_dim
        self.spatial = SpatialEmbedding(
            network, self.config, topology_features=topology_features, rng=rng,
        )
        self.lstm = nn.LSTM(self.config.spatial_dim, hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        """Return (path_representations, edge_representations, mask)."""
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        outputs, _ = self.lstm(spatial, mask=mask)
        mask_tensor = nn.Tensor(mask[:, :, None])
        counts = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        pooled = (outputs * mask_tensor).sum(axis=1) / counts
        return pooled, outputs, mask

    def encode(self, temporal_paths, batch_size=64):
        """Frozen numpy representations for a list of paths."""
        return encode_in_chunks(lambda chunk: self.forward(chunk)[0],
                                temporal_paths, (0, self.hidden_dim), batch_size)


class SpatialSequenceModel(RepresentationModel):
    """Base of MB, BERT, InfoGraph and PIM: ``fit`` sets ``self._encoder``."""

    def __init__(self, dim=16, epochs=2, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.seed = seed
        self._encoder = None

    def encode(self, temporal_paths):
        if self._encoder is None:
            raise RuntimeError("model has not been fitted")
        return self._encoder.encode(temporal_paths)
