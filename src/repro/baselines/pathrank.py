"""PathRank baseline — Yang, Guo & Yang, TKDE 2020.

A supervised path representation model that consumes edge features plus the
departure time as context and is trained end-to-end on the labels of one
task.  Its encoder has the same interface as WSCCL's temporal path encoder,
which is what makes the pre-training experiment of Fig. 7 possible: WSCCL's
trained encoder parameters are loaded into PathRank before supervised
fine-tuning (``pretrained_state``).

Note: the original PathRank uses GRUs; we reuse the LSTM-based temporal path
encoder so pre-trained WSCCL parameters transplant exactly (the paper's
pre-training protocol requires matching encoders).  This substitution is
listed in the README's "Baselines" section.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import TemporalPathEncoder
from ..core.model import SharedResources
from .supervised_base import SupervisedSequenceModel

__all__ = ["PathRankModel"]


class _TemporalEncoderAdapter(nn.Module):
    """Adapt :class:`TemporalPathEncoder` to the supervised-model interface."""

    def __init__(self, encoder):
        super().__init__()
        self.encoder = encoder

    def forward(self, temporal_paths):
        encoded = self.encoder(temporal_paths)
        return encoded.tprs, encoded.edge_representations, encoded.mask

    def encode(self, temporal_paths, batch_size=64):
        return self.encoder.encode(temporal_paths, batch_size=batch_size)


class PathRankModel(SupervisedSequenceModel):
    """Supervised path representation learning with departure-time context."""

    def __init__(self, config=None, pretrained_state=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)
        self.pretrained_state = pretrained_state

    def build_encoder(self, city, resources=None):
        resources = resources or SharedResources(city.network, self.config)
        rng = np.random.default_rng(self.seed)
        encoder = TemporalPathEncoder(
            network=city.network,
            config=self.config,
            spatial_embedding=resources.new_spatial_embedding(rng=rng),
            temporal_embedding=resources.new_temporal_embedding(),
            rng=rng,
        )
        if self.pretrained_state is not None:
            encoder.load_state_dict(self.pretrained_state)
        self._encoder = _TemporalEncoderAdapter(encoder)
        return self._encoder
