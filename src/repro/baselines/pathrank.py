"""PathRank baseline — Yang, Guo & Yang, TKDE 2020.

A supervised path representation model that consumes edge features plus the
departure time as context and is trained end-to-end on the labels of one
task.  Its encoder is WSCCL's temporal path encoder, which is what makes the
pre-training experiment of Fig. 7 possible: WSCCL's trained encoder
parameters are loaded into PathRank before supervised fine-tuning
(``pretrained_state``).

Note: the original PathRank uses GRUs; we reuse the LSTM-based temporal path
encoder so pre-trained WSCCL parameters transplant exactly (the paper's
pre-training protocol requires matching encoders).  This substitution is
listed in the README's "Baselines" section.
"""

from __future__ import annotations

from ..core.config import WSCCLConfig
from ..core.model import SharedResources
from .supervised_base import SupervisedSequenceModel

__all__ = ["PathRankModel"]


class PathRankModel(SupervisedSequenceModel):
    """Supervised path representation learning with departure-time context."""

    def __init__(self, config=None, pretrained_state=None, epochs=3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs, seed=seed)
        self.pretrained_state = pretrained_state

    def build_encoder(self, city):
        self._encoder = SharedResources(city.network, self.config).new_encoder(seed=self.seed)
        if self.pretrained_state is not None:
            self._encoder.load_state_dict(self.pretrained_state)
        return self._encoder
