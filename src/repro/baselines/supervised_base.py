"""Shared machinery for the supervised sequence baselines.

DeepGTT, HMTRL and PathRank all follow the same supervised pattern: a path
encoder over the frozen node2vec features of
:class:`~repro.core.model.SharedResources` produces a representation, linear
heads map it to the task label (travel time or ranking score), and
everything is trained end-to-end on a rescaled target.  They differ in their
encoder architecture and in the hooks below: DeepGTT swaps the MSE head for
an inverse-Gaussian likelihood, HMTRL adds a coherence loss.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.encoder import encode_in_chunks
from ..datasets.splits import minibatch_indices
from ..datasets.tasks import task_labels
from .base import _BATCH_SIZE, _LR, SupervisedModel, _check_supervised_fit

__all__ = ["SupervisedSequenceModel"]

class SupervisedSequenceModel(SupervisedModel):
    """Base class: encoder + linear heads trained on one task's labels.

    Subclasses must set ``self._encoder``, a
    :class:`~repro.core.encoder.PathEncoder`, inside :meth:`build_encoder`.
    """

    #: Number of ``dim -> 1`` linear heads drawn, in order, from the seeded
    #: generator that then shuffles the minibatches.
    _HEADS = 1

    def __init__(self, dim=16, epochs=3, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.seed = seed
        self._encoder = None
        self._heads = None
        self._target_mean = 0.0
        self._target_std = 1.0

    # ------------------------------------------------------------------
    def build_encoder(self, city):
        """Create ``self._encoder`` for the given city dataset."""
        raise NotImplementedError

    def _scale_targets(self, targets):
        """Set ``_target_mean``/``_target_std`` and return the training targets."""
        self._target_mean = float(targets.mean())
        self._target_std = float(max(targets.std(), 1e-6))
        return (targets - self._target_mean) / self._target_std

    def _predict(self, pooled):
        """Predictions in scaled target units for a batch of representations."""
        return self._heads[0](pooled).reshape(-1)

    def _loss(self, pooled, outputs, mask, observed):
        """Training loss of one minibatch against its scaled targets."""
        return nn.functional.mse_loss(self._predict(pooled), observed)

    # ------------------------------------------------------------------
    def fit(self, city):
        """Unsupervised ``fit`` only builds the encoder (used before encode)."""
        self.build_encoder(city)
        return self

    def fit_supervised(self, examples, task, city=None, max_batches=None):
        """Train end-to-end on labelled examples of ``task``.

        ``task`` is 'travel_time' or 'ranking'; the targets are the
        examples' :func:`~repro.datasets.tasks.task_labels`.  The task and
        the example count are checked before the encoder is built.
        """
        _check_supervised_fit(examples, task, ("travel_time", "ranking"),
                              self._encoder is not None, city)
        if self._encoder is None:
            self.build_encoder(city)

        paths = [e.temporal_path for e in examples]
        scaled = self._scale_targets(task_labels(task, examples))

        rng = np.random.default_rng(self.seed)
        self._heads = [nn.Linear(self.dim, 1, rng=rng) for _ in range(self._HEADS)]
        params = list(self._encoder.parameters())
        for head in self._heads:
            params += list(head.parameters())
        optimizer = nn.Adam(params, lr=_LR)

        for indices in minibatch_indices(len(paths), _BATCH_SIZE, rng,
                                         epochs=self.epochs, max_batches=max_batches):
            pooled, outputs, mask = self._encoder([paths[i] for i in indices])
            optimizer.minimize(self._loss(pooled, outputs, mask, nn.Tensor(scaled[indices])),
                               max_norm=5.0)
        return self

    # ------------------------------------------------------------------
    def predict(self, temporal_paths):
        """Direct predictions of the trained task, in target units."""
        if self._encoder is None or self._heads is None:
            raise RuntimeError("model has not been trained with fit_supervised")
        scaled = encode_in_chunks(lambda chunk: self._predict(self._encoder(chunk)[0]).data,
                                  temporal_paths, (0,))
        return scaled * self._target_std + self._target_mean

    def encode(self, temporal_paths):
        """Frozen representations from the (supervised) encoder."""
        if self._encoder is None:
            raise RuntimeError("model has not been fitted")
        return self._encoder.encode(temporal_paths)
