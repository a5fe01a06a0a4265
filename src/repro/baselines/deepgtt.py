"""DeepGTT baseline — Li et al., WWW 2019 (simplified).

DeepGTT is a deep generative model of travel-time *distributions*: given a
path and a departure time it predicts the parameters of an inverse Gaussian
over the travel time.  The reproduction keeps that structure — a
non-recurrent edge-feature encoder conditioned on the departure-time slot,
predicting a positive mean via softplus and trained by maximising the
inverse-Gaussian log-likelihood — while dropping the amortised-inference
machinery that only matters at the paper's original scale.

Because the model is built around travel-time likelihoods, it transfers
poorly to ranking (the paper's Table III/X observation), which this
implementation reproduces naturally.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import encode_in_chunks, pad_paths
from ..core.model import SharedResources
from .supervised_base import SupervisedSequenceModel

__all__ = ["DeepGTTModel"]


class _DeepGTTEncoder(nn.Module):
    """Mean-pooled edge features conditioned on the departure time slot."""

    def __init__(self, network, config, resources=None, seed=0):
        super().__init__()
        resources = resources or SharedResources(network, config)
        rng = np.random.default_rng(seed)
        self.config = config
        self.spatial = resources.new_spatial_embedding(rng=rng)
        self.temporal = resources.new_temporal_embedding()
        self.edge_projection = nn.Linear(config.spatial_dim, config.hidden_dim, rng=rng)
        self.time_projection = nn.Linear(config.temporal_dim, config.hidden_dim, rng=rng)
        self.combine = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        edge_states = self.edge_projection(spatial).relu()

        mask_tensor = nn.Tensor(mask[:, :, None])
        counts = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        pooled_edges = (edge_states * mask_tensor).sum(axis=1) / counts

        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        time_state = self.time_projection(temporal).relu()
        pooled = self.combine(
            nn.Tensor.concatenate([pooled_edges, time_state], axis=-1)
        ).tanh()
        return pooled, edge_states, mask

    def encode(self, temporal_paths, batch_size=64):
        return encode_in_chunks(lambda chunk: self.forward(chunk)[0], temporal_paths,
                                (0, self.config.hidden_dim), batch_size)


class DeepGTTModel(SupervisedSequenceModel):
    """Travel-time distribution estimation with an inverse-Gaussian head."""

    _HEADS = 2  # the mean mu, then the shape lambda

    def __init__(self, config=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)

    def build_encoder(self, city, resources=None):
        self._encoder = _DeepGTTEncoder(
            city.network, self.config, resources=resources, seed=self.seed,
        )
        return self._encoder

    def _scale_targets(self, targets):
        # Scale targets to O(1) so the likelihood is well conditioned; ranking
        # scores are already in [0, 1], travel times are divided by their mean.
        self._target_mean = 0.0
        self._target_std = float(max(targets.mean(), 1e-6))
        return np.maximum(targets / self._target_std, 1e-3)

    def _predict(self, pooled):
        """The inverse-Gaussian mean mu."""
        return _softplus(self._heads[0](pooled).reshape(-1)) + 1e-3

    def _loss(self, pooled, outputs, mask, observed):
        mu = self._predict(pooled)
        lam = _softplus(self._heads[1](pooled).reshape(-1)) + 1e-3
        # Negative inverse-Gaussian log-likelihood (up to constants):
        #   -0.5*log(lam) + lam*(x-mu)^2 / (2*mu^2*x)
        residual = observed - mu
        return (
            (lam * residual * residual) / (mu * mu * observed * 2.0)
            - lam.log() * 0.5
        ).mean()


def _softplus(x):
    return ((x.clip(-30.0, 30.0)).exp() + 1.0).log()
