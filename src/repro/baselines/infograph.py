"""InfoGraph baseline — Sun et al., ICLR 2020, adapted to paths.

Each path is treated as a small graph; the objective maximises mutual
information between the path-level (graph-level) representation and its own
edge-level (node-level) representations while contrasting against edge
representations drawn from *other* paths in the batch — the standard
InfoGraph discriminator, here with a Jensen-Shannon surrogate.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from .sequence_encoder import SpatialSequenceModel

__all__ = ["InfoGraphModel"]


class InfoGraphModel(SpatialSequenceModel):
    """Graph-level vs node-level mutual information maximisation on paths."""

    def _objective(self, city, encoder, rng):
        paths = city.unlabeled.temporal_paths

        def loss_of(step, indices):
            pooled, outputs, mask = encoder([paths[i] for i in indices])
            return self._jsd_loss(pooled, outputs, mask, rng)

        return (), loss_of

    def _jsd_loss(self, pooled, outputs, mask, rng):
        """Jensen-Shannon MI estimator between path and edge representations."""
        batch = pooled.shape[0]
        lengths = mask.sum(axis=1).astype(np.int64)
        positive_terms = []
        negative_terms = []
        for i in range(batch):
            own_edges = outputs[i, :int(lengths[i]), :]
            pos_scores = (own_edges * pooled[i:i + 1, :]).sum(axis=-1)
            # softplus(-x) for positives.
            positive_terms.append(F.softplus(-pos_scores).mean())

            other = int(rng.integers(0, batch))
            if other == i:
                other = (i + 1) % batch
            other_edges = outputs[other, :int(lengths[other]), :]
            neg_scores = (other_edges * pooled[i:i + 1, :]).sum(axis=-1)
            # softplus(x) for negatives.
            negative_terms.append(F.softplus(neg_scores).mean())

        # A left-to-right sum: positives, then negatives.
        return sum(positive_terms[1:] + negative_terms, positive_terms[0]) * (1.0 / batch)
