"""InfoGraph baseline — Sun et al., ICLR 2020, adapted to paths.

Each path is treated as a small graph; the objective maximises mutual
information between the path-level (graph-level) representation and its own
edge-level (node-level) representations while contrasting against edge
representations drawn from *other* paths in the batch — the standard
InfoGraph discriminator, here with a Jensen-Shannon surrogate.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..datasets.splits import minibatch_indices
from .base import _BATCH_SIZE, _LR
from .sequence_encoder import SpatialSequenceEncoder, SpatialSequenceModel

__all__ = ["InfoGraphModel"]


class InfoGraphModel(SpatialSequenceModel):
    """Graph-level vs node-level mutual information maximisation on paths."""

    def fit(self, city, max_batches=None, **kwargs):
        rng = np.random.default_rng(self.seed)
        paths = city.unlabeled.temporal_paths
        encoder = SpatialSequenceEncoder(city.network, hidden_dim=self.dim, seed=self.seed)
        optimizer = nn.Adam(encoder.parameters(), lr=_LR)

        for indices in minibatch_indices(len(paths), _BATCH_SIZE, rng,
                                         epochs=self.epochs, max_batches=max_batches):
            pooled, outputs, mask = encoder([paths[i] for i in indices])
            loss = self._jsd_loss(pooled, outputs, mask, rng)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        self._encoder = encoder
        return self

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
            positive_terms.append(((-pos_scores).exp() + 1.0).log().mean())

            other = int(rng.integers(0, batch))
            if other == i:
                other = (i + 1) % batch
            other_edges = outputs[other, :int(lengths[other]), :]
            neg_scores = (other_edges * pooled[i:i + 1, :]).sum(axis=-1)
            # softplus(x) for negatives.
            negative_terms.append((neg_scores.exp() + 1.0).log().mean())

        loss = positive_terms[0]
        for term in positive_terms[1:]:
            loss = loss + term
        for term in negative_terms:
            loss = loss + term
        return loss * (1.0 / batch)
