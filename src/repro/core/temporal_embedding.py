"""Temporal embedding layer (paper §IV-A, Eq. 2).

A temporal graph over ``(day of week, time slot)`` nodes is embedded with
node2vec; the temporal embedding of a departure time is the embedding of its
slot node.  The embedding is kept frozen during WSC training, matching the
paper's pipeline where node2vec is a pre-processing step.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graph import Node2Vec, Node2VecConfig
from ..temporal.temporal_graph import build_temporal_graph
from ..temporal.timeslots import DAYS_PER_WEEK

__all__ = ["TemporalEmbedding"]


class TemporalEmbedding(nn.Module):
    """Map departure times to temporal feature vectors ``t_all``.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.WSCCLConfig`; ``temporal_dim`` and
        ``slots_per_day`` control the embedding size and graph granularity.
    embeddings:
        Optional pre-computed ``(slots_per_day * 7, temporal_dim)`` array to
        reuse across models (e.g. the curriculum experts).
    """

    def __init__(self, config, embeddings=None):
        super().__init__()
        self.config = config
        self.slots_per_day = config.slots_per_day
        self.num_nodes = self.slots_per_day * DAYS_PER_WEEK
        # Captured at construction (like Parameter dtypes), not at call time:
        # a float32 model keeps producing float32 temporal features even when
        # forward runs outside the dtype context it was built in.
        self._dtype = nn.get_default_dtype()

        if embeddings is None:
            embeddings = self._fit_node2vec(config)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape != (self.num_nodes, config.temporal_dim):
            raise ValueError(
                f"temporal embeddings have shape {embeddings.shape}, "
                f"expected {(self.num_nodes, config.temporal_dim)}"
            )
        # One cast at construction (not per forward): the gather in
        # :meth:`forward` then reads and returns the module dtype directly.
        self._embeddings = embeddings.astype(self._dtype, copy=False)

    def _fit_node2vec(self, config):
        graph = build_temporal_graph(slots_per_day=self.slots_per_day)
        node2vec = Node2Vec(Node2VecConfig(
            dim=config.temporal_dim,
            walks_per_node=config.node2vec_walks,
            walk_length=config.node2vec_walk_length,
            window=config.node2vec_window,
            epochs=config.node2vec_epochs,
            seed=config.seed,
        ))
        return node2vec.fit_temporal_graph(graph)

    @property
    def output_dim(self):
        """``d_tem``."""
        return self.config.temporal_dim

    @property
    def embeddings(self):
        """The frozen slot-node embedding matrix."""
        return self._embeddings

    def slot_index(self, departure_time):
        """Temporal-graph node index of a departure time at this granularity."""
        seconds_per_slot = 86400.0 / self.slots_per_day
        slot = int(departure_time.seconds // seconds_per_slot)
        slot = min(slot, self.slots_per_day - 1)
        return departure_time.day_of_week * self.slots_per_day + slot

    def slot_indices(self, departure_times):
        """Vectorised :meth:`slot_index` for a batch of departure times."""
        count = len(departure_times)
        seconds = np.fromiter((t.seconds for t in departure_times),
                              dtype=np.float64, count=count)
        days = np.fromiter((t.day_of_week for t in departure_times),
                           dtype=np.int64, count=count)
        seconds_per_slot = 86400.0 / self.slots_per_day
        slots = np.minimum((seconds // seconds_per_slot).astype(np.int64),
                           self.slots_per_day - 1)
        return days * self.slots_per_day + slots

    def forward(self, departure_times):
        """Temporal embedding ``t_all`` for a batch of departure times.

        Returns a constant (non-trainable) Tensor of shape
        ``(batch, temporal_dim)`` in the module's construction-time dtype.
        """
        return nn.Tensor(self._embeddings[self.slot_indices(departure_times)])
