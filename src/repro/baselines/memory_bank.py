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
from ..datasets.splits import minibatch_indices
from ..nn import functional as F
from .base import _BATCH_SIZE, _LR
from .sequence_encoder import SpatialSequenceEncoder, SpatialSequenceModel

__all__ = ["MemoryBankModel"]


#: Bank entries drawn as negatives per step.
_NEGATIVES = 8
#: Share of a bank entry kept when it is refreshed from the encoder.
_BANK_MOMENTUM = 0.5
#: Softmax temperature of the instance-discrimination loss.
_TEMPERATURE = 0.1


class MemoryBankModel(SpatialSequenceModel):
    """Instance-discrimination training with a representation memory bank."""

    def fit(self, city, max_batches=None, **kwargs):
        rng = np.random.default_rng(self.seed)
        paths = city.unlabeled.temporal_paths
        encoder = SpatialSequenceEncoder(city.network, hidden_dim=self.dim, seed=self.seed)
        optimizer = nn.Adam(encoder.parameters(), lr=_LR)

        # Memory bank initialised with random unit vectors.
        bank = rng.normal(size=(len(paths), self.dim))
        bank /= np.maximum(np.linalg.norm(bank, axis=1, keepdims=True), 1e-12)

        for indices in minibatch_indices(len(paths), _BATCH_SIZE, rng,
                                         epochs=self.epochs, max_batches=max_batches):
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
            loss = (denominator - pos_sims).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

            # Moving-average refresh of the bank entries for this batch.
            fresh = encoder.encode(batch_paths)
            fresh /= np.maximum(np.linalg.norm(fresh, axis=1, keepdims=True), 1e-12)
            bank[indices] = _BANK_MOMENTUM * bank[indices] + (1.0 - _BANK_MOMENTUM) * fresh
            bank[indices] /= np.maximum(
                np.linalg.norm(bank[indices], axis=1, keepdims=True), 1e-12
            )

        self._encoder = encoder
        return self
