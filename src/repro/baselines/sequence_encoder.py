"""Shared spatial-only sequence encoder and fit loop of several baselines.

MB, InfoGraph, PIM and BERT all encode a path as a sequence of *spatial* edge
features (no temporal information).  This module provides that encoder and
the one training loop they share, :meth:`SpatialSequenceModel.fit`, so the
baselines differ only in their training objective, as in the paper: each
defines ``_objective`` and nothing else of the fit.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import LSTMPathEncoder, pad_paths
from ..core.model import edge_topology_features
from ..core.spatial import SpatialEmbedding
from ..datasets.splits import minibatch_indices
from .base import _BATCH_SIZE, _LR, RepresentationModel

__all__ = ["SpatialSequenceEncoder", "SpatialSequenceModel"]


class SpatialSequenceEncoder(LSTMPathEncoder):
    """LSTM over spatial edge embeddings with masked mean pooling: WSCCL's
    path encoder without the temporal block.

    Parameters
    ----------
    network:
        Road network the paths live on.
    hidden_dim:
        Encoder output dimensionality.
    """

    def __init__(self, network, hidden_dim=16, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = WSCCLConfig.test_scale().with_overrides(hidden_dim=hidden_dim)
        self.output_dim = hidden_dim
        self.spatial = SpatialEmbedding(network, self.config,
                                        edge_topology_features(network, self.config), rng=rng)
        self.lstm = nn.LSTM(self.config.spatial_dim, hidden_dim, rng=rng)

    def _inputs(self, temporal_paths):
        """Each step of the input is the edge's spatial features (Eq. 6)."""
        edge_ids, mask = pad_paths(temporal_paths)
        inputs = np.empty(edge_ids.shape + (self.config.spatial_dim,))
        return inputs, mask, self.spatial._gather(edge_ids, inputs, mask[..., None])


class SpatialSequenceModel(RepresentationModel):
    """Base of MB, BERT, InfoGraph and PIM: one fit loop, one objective each."""

    def __init__(self, dim=16, epochs=2, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.seed = seed
        self._encoder = None

    def fit(self, city, max_batches=None, **kwargs):
        """Adam over minibatches of ``city``'s unlabeled paths; sets the encoder.

        One seeded generator builds the objective, shuffles the minibatches
        and makes every draw the objective's loss needs, in that order.
        """
        rng = np.random.default_rng(self.seed)
        paths = city.unlabeled.temporal_paths
        encoder = SpatialSequenceEncoder(city.network, hidden_dim=self.dim, seed=self.seed)
        heads, loss_of = self._objective(city, encoder, rng)
        params = list(encoder.parameters())
        for head in heads:
            params += list(head.parameters())
        optimizer = nn.Adam(params, lr=_LR)
        for step, indices in enumerate(minibatch_indices(
                len(paths), _BATCH_SIZE, rng, epochs=self.epochs, max_batches=max_batches)):
            optimizer.minimize(loss_of(step, indices))
        self._encoder = encoder
        return self

    def _objective(self, city, encoder, rng):
        """``(heads, loss_of)``: the modules the objective trains next to the
        encoder, and ``loss_of(step, indices)``, the loss of step ``step`` on
        the unlabeled paths at ``indices``."""
        raise NotImplementedError

    def encode(self, temporal_paths):
        if self._encoder is None:
            raise RuntimeError("model has not been fitted")
        return self._encoder.encode(temporal_paths)
