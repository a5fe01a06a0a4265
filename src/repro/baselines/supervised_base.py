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
from .base import _BATCH_SIZE, _LR, SupervisedModel

__all__ = ["SupervisedSequenceModel"]

#: Task name -> label attribute of its examples.
_TARGET_ATTRIBUTES = {"travel_time": "travel_time", "ranking": "score"}


class SupervisedSequenceModel(SupervisedModel):
    """Base class: encoder + linear heads trained on one task's labels.

    Subclasses must set ``self._encoder`` (a module with
    ``forward(paths) -> (pooled Tensor, outputs Tensor, mask)`` and
    ``encode(paths) -> numpy``) inside :meth:`build_encoder`.
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
    def build_encoder(self, city, resources=None):
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
    def fit(self, city, **kwargs):
        """Unsupervised ``fit`` only builds the encoder (used before encode)."""
        self.build_encoder(city, **kwargs)
        return self

    def fit_supervised(self, examples, task, city=None, max_batches=None, **kwargs):
        """Train end-to-end on labelled examples of ``task``.

        ``examples`` carry ``temporal_path`` plus ``travel_time`` (task
        'travel_time') or ``score`` (task 'ranking').  The task and the
        example count are checked before the encoder is built.
        """
        if task not in _TARGET_ATTRIBUTES:
            raise ValueError(f"unsupported task {task!r}")
        if len(examples) < 2:
            raise ValueError(f"need at least 2 examples for one minibatch, got {len(examples)}")
        if self._encoder is None:
            if city is None:
                raise ValueError("pass city= the first time fit_supervised is called")
            self.build_encoder(city, **kwargs)

        paths = [e.temporal_path for e in examples]
        targets = np.array([getattr(e, _TARGET_ATTRIBUTES[task]) for e in examples],
                           dtype=np.float64)
        scaled = self._scale_targets(targets)

        rng = np.random.default_rng(self.seed)
        self._heads = [nn.Linear(self.dim, 1, rng=rng) for _ in range(self._HEADS)]
        params = list(self._encoder.parameters())
        for head in self._heads:
            params += list(head.parameters())
        optimizer = nn.Adam(params, lr=_LR)

        for indices in minibatch_indices(len(paths), _BATCH_SIZE, rng,
                                         epochs=self.epochs, max_batches=max_batches):
            pooled, outputs, mask = self._encoder([paths[i] for i in indices])
            loss = self._loss(pooled, outputs, mask, nn.Tensor(scaled[indices]))
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(params, 5.0)
            optimizer.step()
        return self

    # ------------------------------------------------------------------
    def predict(self, temporal_paths, batch_size=64):
        """Direct predictions of the trained task, in target units."""
        if self._encoder is None or self._heads is None:
            raise RuntimeError("model has not been trained with fit_supervised")
        scaled = encode_in_chunks(lambda chunk: self._predict(self._encoder(chunk)[0]),
                                  temporal_paths, (0,), batch_size)
        return scaled * self._target_std + self._target_mean

    def encode(self, temporal_paths):
        """Frozen representations from the (supervised) encoder."""
        if self._encoder is None:
            raise RuntimeError("model has not been fitted")
        return self._encoder.encode(temporal_paths)
