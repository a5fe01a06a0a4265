"""The WSC model: a temporal path encoder trained with WSC losses.

:class:`WSCModel` bundles the encoder with the shared frozen embedding
resources (node2vec features) so that the curriculum stage can create many
expert models over the same network without recomputing walks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .config import WSCCLConfig
from .encoder import TemporalPathEncoder
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding

__all__ = ["WSCModel", "SharedResources"]


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


class WSCModel(nn.Module):
    """Weakly-Supervised Contrastive model (the paper's basic framework).

    Parameters
    ----------
    network:
        Road network the model's paths live on.
    config:
        Hyper-parameters.
    resources:
        Optional :class:`SharedResources`; created on demand otherwise.
    use_temporal:
        Set False for the WSCCL-NT ablation (Table VIII).
    seed:
        Seed for the trainable parameter initialisation (each curriculum
        expert gets a different seed).
    """

    def __init__(self, network, config=None, resources=None, use_temporal=True,
                 seed=None):
        super().__init__()
        self.config = config or WSCCLConfig()
        self.network = network
        self.resources = resources or SharedResources(network, self.config)
        seed = self.config.seed if seed is None else seed
        rng = np.random.default_rng(seed)

        self.encoder = TemporalPathEncoder(
            network=network,
            config=self.config,
            spatial_embedding=self.resources.new_spatial_embedding(rng=rng),
            temporal_embedding=self.resources.new_temporal_embedding(),
            use_temporal=use_temporal,
            rng=rng,
        )

    @property
    def representation_dim(self):
        """Dimensionality of the produced TPRs."""
        return self.encoder.output_dim

    def forward(self, temporal_paths):
        """Encode a batch; returns an :class:`~repro.core.encoder.EncodedBatch`."""
        return self.encoder(temporal_paths)

    def encode(self, temporal_paths, batch_size=64):
        """Numpy TPR matrix for a list of temporal paths (no gradients)."""
        return self.encoder.encode(temporal_paths, batch_size=batch_size)

    def embed(self, temporal_paths, batch_size=64):
        """Alias of :meth:`encode`, matching the serving layer's vocabulary."""
        return self.encode(temporal_paths, batch_size=batch_size)

    def represent(self, temporal_path):
        """Convenience: the TPR of a single temporal path as a 1-D array."""
        return self.encode([temporal_path])[0]
