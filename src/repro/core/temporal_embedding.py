"""Temporal embedding layer (paper §IV-A, Eq. 2).

A temporal graph over ``(day of week, time slot)`` nodes is embedded with
node2vec; the temporal embedding of a departure time is the embedding of its
slot node.  The embedding is kept frozen during WSC training, matching the
paper's pipeline where node2vec is a pre-processing step: the layer takes the
slot embeddings as an array, which :func:`repro.core.model.slot_embeddings`
computes (and :class:`~repro.core.model.SharedResources` holds).
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .. import nn
from ..temporal.timeslots import DAYS_PER_WEEK

__all__ = ["TemporalEmbedding"]

_SECONDS = attrgetter("seconds")
_DAY = attrgetter("day_of_week")


class TemporalEmbedding(nn.Module):
    """Map departure times to temporal feature vectors ``t_all``.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.WSCCLConfig`; ``temporal_dim`` and
        ``slots_per_day`` control the embedding size and graph granularity.
    embeddings:
        The frozen ``(slots_per_day * 7, temporal_dim)`` slot embeddings.
    """

    def __init__(self, config, embeddings):
        super().__init__()
        self.config = config
        self.slots_per_day = config.slots_per_day
        self.num_nodes = self.slots_per_day * DAYS_PER_WEEK

        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape != (self.num_nodes, config.temporal_dim):
            raise ValueError(
                f"temporal embeddings have shape {embeddings.shape}, "
                f"expected {(self.num_nodes, config.temporal_dim)}"
            )
        self._embeddings = embeddings

    @property
    def output_dim(self):
        """``d_tem``."""
        return self.config.temporal_dim

    @property
    def embeddings(self):
        """The frozen slot-node embedding matrix."""
        return self._embeddings

    def slot_indices(self, departure_times):
        """Temporal-graph node index of each departure time at this
        granularity: ``day * slots_per_day + slot of the day``."""
        count = len(departure_times)
        seconds = np.fromiter(map(_SECONDS, departure_times), dtype=np.float64, count=count)
        # The slot of the day, capped in float: it is a small whole number.
        slots = np.minimum(seconds // (86400.0 / self.slots_per_day),
                           self.slots_per_day - 1).astype(np.int64)
        slots += np.fromiter(map(_DAY, departure_times), dtype=np.int64,
                             count=count) * self.slots_per_day
        return slots

    def forward(self, departure_times):
        """Temporal embedding ``t_all`` for a batch of departure times.

        Returns a constant (non-trainable) Tensor of shape
        ``(batch, temporal_dim)``.
        """
        return nn.Tensor(self._embeddings[self.slot_indices(departure_times)])
