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
from ..core.encoder import encode_in_chunks, pad_paths
from ..core.model import SharedResources
from .supervised_base import SupervisedSequenceModel

__all__ = ["HMTRLModel"]


#: Weight of the route-coherence term added to the MSE loss.
_COHERENCE_WEIGHT = 0.1


class _HMTRLEncoder(nn.Module):
    """LSTM over spatio-temporal edge features with mean+max pooling."""

    def __init__(self, network, config, resources=None, seed=0):
        super().__init__()
        resources = resources or SharedResources(network, config)
        rng = np.random.default_rng(seed)
        self.config = config
        self.spatial = resources.new_spatial_embedding(rng=rng)
        self.temporal = resources.new_temporal_embedding()
        self.lstm = nn.LSTM(config.encoder_input_dim, config.hidden_dim, rng=rng)
        self.mix = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        steps = nn.Tensor(np.repeat(temporal.data[:, None, :], edge_ids.shape[1], axis=1))
        inputs = nn.Tensor.concatenate([steps, spatial], axis=-1)
        outputs, _ = self.lstm(inputs, mask=mask)

        mean_pooled = nn.functional.masked_mean(outputs, mask)
        # Max over valid steps: push padded entries far down before max.
        shifted = outputs + nn.Tensor((mask[:, :, None] - 1.0) * 1e6)
        max_pooled = shifted.max(axis=1)
        pooled = self.mix(nn.Tensor.concatenate([mean_pooled, max_pooled], axis=-1)).tanh()
        return pooled, outputs, mask

    def encode(self, temporal_paths, batch_size=64):
        return encode_in_chunks(lambda chunk: self.forward(chunk)[0], temporal_paths,
                                (0, self.config.hidden_dim), batch_size)


class HMTRLModel(SupervisedSequenceModel):
    """Unified route representation learning with a coherence auxiliary loss."""

    def __init__(self, config=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)

    def build_encoder(self, city, resources=None):
        self._encoder = _HMTRLEncoder(
            city.network, self.config, resources=resources, seed=self.seed,
        )
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
