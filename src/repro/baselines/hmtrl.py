"""HMTRL baseline — Liu et al., VLDB 2020 (simplified).

HMTRL learns unified route representations that exploit spatio-temporal
dependencies in the road network and the coherence of historical routes.  The
reproduction keeps its two distinguishing ingredients relative to PathRank:

* the path representation combines mean- and max-pooled edge states, and
* an auxiliary *route coherence* loss encourages consecutive edges of a route
  to have similar hidden states.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import PathEncoder, TemporalPathEncoder
from ..core.model import SharedResources
from .supervised_base import SupervisedSequenceModel

__all__ = ["HMTRLModel"]


#: Weight of the route-coherence term added to the MSE loss.
_COHERENCE_WEIGHT = 0.1


class _HMTRLEncoder(TemporalPathEncoder):
    """The temporal path encoder with mean+max pooling mixed by a linear layer."""

    def __init__(self, config, spatial, temporal, rng):
        super().__init__(config, spatial, temporal, rng)
        self.mix = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    # The pooling differs from the temporal path encoder's, so encode takes
    # each chunk from this forward, as every other encoder does by default.
    _representations = PathEncoder._representations

    def forward(self, temporal_paths):
        mean_pooled, outputs, mask = super().forward(temporal_paths)
        # Max over valid steps: push padded entries far down before max.
        shifted = outputs + nn.Tensor((mask[:, :, None] - 1.0) * 1e6)
        max_pooled = shifted.max(axis=1)
        pooled = self.mix(nn.Tensor.concatenate([mean_pooled, max_pooled], axis=-1)).tanh()
        return pooled, outputs, mask


class HMTRLModel(SupervisedSequenceModel):
    """Unified route representation learning with a coherence auxiliary loss."""

    def __init__(self, config=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)

    def build_encoder(self, city):
        resources = SharedResources(city.network, self.config)
        rng = np.random.default_rng(self.seed)
        self._encoder = _HMTRLEncoder(self.config, resources.new_spatial_embedding(rng=rng),
                                      resources.new_temporal_embedding(), rng)
        return self._encoder

    def _loss(self, pooled, outputs, mask, observed):
        """MSE plus route coherence: consecutive edge states should be similar."""
        loss = super()._loss(pooled, outputs, mask, observed)
        if outputs.shape[1] < 2:
            return loss
        current = outputs[:, 1:, :]
        previous = outputs[:, :-1, :]
        pair_mask = nn.Tensor((mask[:, 1:] * mask[:, :-1])[:, :, None])
        difference = (current - previous) * pair_mask
        return loss + (difference * difference).mean() * _COHERENCE_WEIGHT
