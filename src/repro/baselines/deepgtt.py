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
from ..core.encoder import PathEncoder, pad_paths
from ..core.model import SharedResources
from ..nn import functional as F
from .supervised_base import SupervisedSequenceModel

__all__ = ["DeepGTTModel"]


class _DeepGTTEncoder(PathEncoder):
    """Mean-pooled edge features conditioned on the departure time slot."""

    def __init__(self, resources, seed=0):
        super().__init__()
        config = resources.config
        rng = np.random.default_rng(seed)
        self.output_dim = config.hidden_dim
        self.spatial = resources.new_spatial_embedding(rng=rng)
        self.temporal = resources.new_temporal_embedding()
        self.edge_projection = nn.Linear(config.spatial_dim, config.hidden_dim, rng=rng)
        self.time_projection = nn.Linear(config.temporal_dim, config.hidden_dim, rng=rng)
        self.combine = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        edge_states = self.edge_projection(spatial).relu()

        pooled_edges = F.masked_mean(edge_states, mask)

        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        time_state = self.time_projection(temporal).relu()
        pooled = self.combine(
            nn.Tensor.concatenate([pooled_edges, time_state], axis=-1)
        ).tanh()
        return pooled, edge_states, mask


class DeepGTTModel(SupervisedSequenceModel):
    """Travel-time distribution estimation with an inverse-Gaussian head."""

    _HEADS = 2  # the mean mu, then the shape lambda

    def __init__(self, config=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)

    def build_encoder(self, city):
        self._encoder = _DeepGTTEncoder(SharedResources(city.network, self.config), seed=self.seed)
        return self._encoder

    def _scale_targets(self, targets):
        # Scale targets to O(1) so the likelihood is well conditioned; ranking
        # scores are already in [0, 1], travel times are divided by their mean.
        self._target_mean = 0.0
        self._target_std = float(max(targets.mean(), 1e-6))
        return np.maximum(targets / self._target_std, 1e-3)

    def _predict(self, pooled):
        """The inverse-Gaussian mean mu."""
        return F.softplus(self._heads[0](pooled).reshape(-1).clip(-30.0, 30.0)) + 1e-3

    def _loss(self, pooled, outputs, mask, observed):
        mu = self._predict(pooled)
        lam = F.softplus(self._heads[1](pooled).reshape(-1).clip(-30.0, 30.0)) + 1e-3
        # Negative inverse-Gaussian log-likelihood (up to constants):
        #   -0.5*log(lam) + lam*(x-mu)^2 / (2*mu^2*x)
        residual = observed - mu
        return (
            (lam * residual * residual) / (mu * mu * observed * 2.0)
            - lam.log() * 0.5
        ).mean()
