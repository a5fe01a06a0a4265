"""Memory Bank (MB) baseline — Wu et al., CVPR 2018, adapted to paths.

Instance discrimination: every unlabeled path is its own class.  The encoder
is trained to make a path's representation similar to its stored memory-bank
entry and dissimilar to randomly drawn entries of other paths.  As in the
paper's re-implementation, the encoder is an LSTM over spatial edge features
(no temporal information).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .sequence_encoder import SpatialSequenceModel

__all__ = ["MemoryBankModel"]


#: Bank entries drawn as negatives per step.
_NEGATIVES = 8
#: Share of a bank entry kept when it is refreshed from the encoder.
_BANK_MOMENTUM = 0.5
#: Softmax temperature of the instance-discrimination loss.
_TEMPERATURE = 0.1


class MemoryBankModel(SpatialSequenceModel):
    """Instance-discrimination training with a representation memory bank."""

    def _objective(self, city, encoder, rng):
        paths = city.unlabeled.temporal_paths
        # Memory bank initialised with random unit vectors.
        bank = rng.normal(size=(len(paths), self.dim))
        bank /= np.maximum(np.linalg.norm(bank, axis=1, keepdims=True), 1e-12)
        # The last step's batch: its entries are refreshed from the encoder
        # once its update is taken, at the start of the next step.  The bank
        # goes with the fit, so the final batch needs no refresh.
        pending = []

        def loss_of(step, indices):
            if pending:
                refresh(pending.pop())
            pending.append(indices)
            batch_paths = [paths[i] for i in indices]
            pooled, _, _ = encoder(batch_paths)

            negative_indices = rng.choice(len(paths), size=_NEGATIVES, replace=False)
            positives = nn.Tensor(bank[indices])
            negatives = nn.Tensor(bank[negative_indices])

            pos_sims = F.cosine_similarity(pooled, positives) * (1.0 / _TEMPERATURE)
            # (B, K) similarities against the shared negative set.
            pooled_norm = F.normalize(pooled, axis=-1)
            negatives_norm = F.normalize(negatives, axis=-1)
            neg_sims = (pooled_norm @ negatives_norm.transpose()) * (1.0 / _TEMPERATURE)

            denominator = F.logsumexp(
                nn.Tensor.concatenate([pos_sims.reshape(-1, 1), neg_sims], axis=1), axis=-1
            )
            return (denominator - pos_sims).mean()

        def refresh(indices):
            # Moving-average refresh of the bank entries for this batch.
            fresh = encoder.encode([paths[i] for i in indices])
            fresh /= np.maximum(np.linalg.norm(fresh, axis=1, keepdims=True), 1e-12)
            bank[indices] = _BANK_MOMENTUM * bank[indices] + (1.0 - _BANK_MOMENTUM) * fresh
            bank[indices] /= np.maximum(
                np.linalg.norm(bank[indices], axis=1, keepdims=True), 1e-12
            )

        return (), loss_of
