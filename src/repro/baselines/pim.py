"""PIM baseline — Yang et al., IJCAI 2021 — and its temporal extension.

PIM (Path InfoMax) learns unsupervised path representations by maximising
mutual information (i) globally, between a path's representation and the
representations of its own sub-paths against *negative* paths obtained via
curriculum negative sampling (edge-perturbed variants of the path), and
(ii) locally, between the path representation and its own edge
representations.  No temporal information is used.

:class:`PIMTemporalModel` (Table IX) concatenates the frozen temporal slot
embedding of the departure time onto PIM's path representation — the paper's
"PIM-Temporal" comparison showing that bolting a temporal vector onto a
non-temporal PR is inferior to learning a coupled TPR.
"""

from __future__ import annotations

import numpy as np

from ..datasets.temporal_paths import TemporalPath
from ..nn import functional as F
from .base import _BATCH_SIZE, departure_slot_embedding
from .sequence_encoder import SpatialSequenceModel

__all__ = ["PIMModel", "PIMTemporalModel"]


#: Largest share of a path's edges replaced in a curriculum negative.
_NEGATIVE_PERTURBATION = 0.4


class PIMModel(SpatialSequenceModel):
    """Unsupervised path representation learning via global/local InfoMax."""

    # ------------------------------------------------------------------
    def _curriculum_negative(self, path, network, rng, difficulty):
        """Curriculum negative sampling: perturb a fraction of the path's edges.

        Early in training (low difficulty) most edges are replaced with
        random edges, giving easy negatives; later only a few are replaced,
        giving hard negatives — PIM's curriculum schedule.
        """
        edges = list(path.path)
        replace_fraction = max(0.1, _NEGATIVE_PERTURBATION * (1.0 - difficulty))
        count = max(1, int(round(len(edges) * replace_fraction)))
        positions = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
        for position in positions:
            edges[position] = int(rng.integers(0, network.num_edges))
        return TemporalPath(path=edges, departure_time=path.departure_time)

    def _objective(self, city, encoder, rng):
        paths = city.unlabeled.temporal_paths
        network = city.network
        total_steps = max(1, self.epochs * (len(paths) // _BATCH_SIZE))

        def loss_of(step, indices):
            batch_paths = [paths[i] for i in indices]
            difficulty = min(1.0, step / total_steps)
            negatives = [
                self._curriculum_negative(p, network, rng, difficulty)
                for p in batch_paths
            ]
            pos_pooled, pos_outputs, pos_mask = encoder(batch_paths)
            neg_pooled, _, _ = encoder(negatives)
            return self._infomax_loss(pos_pooled, pos_outputs, pos_mask, neg_pooled)

        return (), loss_of

    def _infomax_loss(self, pooled, outputs, mask, negative_pooled):
        """Global (path vs negative path) + local (path vs own edges) JSD MI."""
        batch = pooled.shape[0]
        lengths = mask.sum(axis=1).astype(np.int64)

        # Global: the path representation should score higher against itself
        # than against its curriculum negative.
        pos_scores = (pooled * pooled).sum(axis=-1)
        neg_scores = (pooled * negative_pooled).sum(axis=-1)
        global_loss = F.softplus(-pos_scores).mean() + F.softplus(neg_scores).mean()

        # Local: path representation vs its own edge representations.
        local_terms = []
        for i in range(batch):
            own_edges = outputs[i, :int(lengths[i]), :]
            scores = (own_edges * pooled[i:i + 1, :]).sum(axis=-1)
            local_terms.append(F.softplus(-scores).mean())
        local_loss = sum(local_terms[1:], local_terms[0]) * (1.0 / batch)

        return global_loss + local_loss


class PIMTemporalModel(PIMModel):
    """PIM with a frozen temporal embedding concatenated onto its PR (Table IX)."""

    def fit(self, city, max_batches=None, **kwargs):
        super().fit(city, max_batches=max_batches)
        self._temporal = departure_slot_embedding()
        return self

    def encode(self, temporal_paths):
        base = super().encode(temporal_paths)
        temporal = self._temporal([tp.departure_time for tp in temporal_paths]).data
        return np.concatenate([base, temporal], axis=1)
