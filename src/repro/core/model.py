"""Shared frozen resources and the factory of WSC models.

The WSC model is a :class:`~repro.core.encoder.TemporalPathEncoder`.
:meth:`SharedResources.new_encoder` builds one over frozen node2vec features
computed once per network, so the curriculum stage, the ablations, model
loading and PathRank create many encoders without recomputing walks.
"""

from __future__ import annotations

import numpy as np

from .config import WSCCLConfig
from .encoder import TemporalPathEncoder
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding

__all__ = ["SharedResources"]


class SharedResources:
    """Frozen node2vec features shared between WSC models on one network.

    Experts, ablation variants and the final model can all reuse one
    instance of this class.  The two node2vec fits behind it run once per
    process for each network and config (``Node2Vec.fit`` is memoized), so a
    second instance copies the stored embeddings instead of refitting.  Pre-computed
    arrays can be passed in directly (used when loading a persisted model)
    to skip node2vec entirely.
    """

    def __init__(self, network, config=None, topology_features=None,
                 temporal_embeddings=None):
        self.network = network
        self.config = config or WSCCLConfig()
        if topology_features is None:
            topology_features = SpatialEmbedding(network, self.config).topology_features
        if temporal_embeddings is None:
            temporal_embeddings = TemporalEmbedding(self.config).embeddings
        self._topology_features = np.asarray(topology_features, dtype=np.float64)
        self._temporal_embeddings = np.asarray(temporal_embeddings, dtype=np.float64)

    @property
    def topology_features(self):
        return self._topology_features

    @property
    def temporal_embeddings(self):
        return self._temporal_embeddings

    def new_spatial_embedding(self, rng=None):
        """A fresh trainable spatial embedding reusing the frozen topology."""
        return SpatialEmbedding(
            self.network, self.config,
            topology_features=self.topology_features, rng=rng,
        )

    def new_temporal_embedding(self):
        """A temporal embedding module reusing the frozen slot embeddings."""
        return TemporalEmbedding(self.config, embeddings=self.temporal_embeddings)

    def new_encoder(self, seed=None, use_temporal=True):
        """A fresh :class:`~repro.core.encoder.TemporalPathEncoder` over the
        frozen features.

        One generator seeded with ``seed`` (default: the config's) draws the
        spatial embedding's weights, then the LSTM's.  ``use_temporal=False``
        gives the WSCCL-NT ablation (Table VIII).
        """
        rng = np.random.default_rng(self.config.seed if seed is None else seed)
        return TemporalPathEncoder(
            self.config, self.new_spatial_embedding(rng=rng),
            self.new_temporal_embedding(), rng, use_temporal=use_temporal,
        )
