"""The one training loop of the WSC (basic) framework.

:class:`WSCTrainer` trains one
:class:`~repro.core.encoder.TemporalPathEncoder` with the combined
global/local weakly-supervised contrastive loss.  Its :meth:`~WSCTrainer.fit`
walks a schedule of ``(samples, epochs)`` stages in minibatches; every WSC
schedule is one: the learned or heuristic curriculum's stages and final stage,
the "w/o CL" corpus, and each expert's meta-set.  Above the LSTM's input,
each step's graph is two nodes: the fused LSTM and the objective node
:func:`~repro.core.losses.combined_wsc_loss`, which takes the masked-mean
TPRs itself.  The step updates through :meth:`repro.nn.Optimizer.minimize`,
clipped at the config's ``grad_clip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datasets.splits import minibatch_indices
from .losses import combined_wsc_loss
from .sampling import augment_with_positive_views, build_contrast_sets, sample_edge_sets

__all__ = ["TrainingHistory", "WSCTrainer"]


@dataclass
class TrainingHistory:
    """Per-epoch average loss values recorded during training."""

    epoch_losses: list = field(default_factory=list)

    def record(self, value):
        self.epoch_losses.append(float(value))


class WSCTrainer:
    """Minibatch trainer for the weakly-supervised contrastive objective.

    Parameters
    ----------
    model:
        The :class:`~repro.core.encoder.TemporalPathEncoder` to train.
    config:
        Hyper-parameters (λ, temperature, batch size, learning rate, ...).
        Defaults to the model's own config.
    """

    def __init__(self, model, config=None, seed=None):
        self.model = model
        self.config = config or model.config
        self.rng = np.random.default_rng(self.config.seed if seed is None else seed)
        self.optimizer = nn.Adam(model.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def train_step(self, batch, weak_labeler):
        """One optimisation step on a minibatch of ``(TemporalPath, label)``.

        Returns the scalar loss value of the step.  A batch whose loss
        reaches no parameter (no query has both a positive and a negative)
        updates nothing.  The encoder's TPRs are not built: the objective
        node averages the LSTM's steps itself, so that its backward sums the
        gradient of ``steps`` in the order the bit-identical results need.
        """
        augmented = augment_with_positive_views(batch, weak_labeler, self.rng)
        contrast_sets = build_contrast_sets(augmented)

        steps, mask = self.model._steps([tp for tp, _ in augmented])
        edge_sets = sample_edge_sets(
            contrast_sets, mask, self.rng,
            edges_per_path=self.config.local_edges_per_path,
        )
        loss = combined_wsc_loss(
            steps,
            mask,
            contrast_sets,
            edge_sets,
            lambda_balance=self.config.lambda_balance,
            temperature=self.config.temperature,
        )
        return self.optimizer.minimize(loss, max_norm=self.config.grad_clip)

    # ------------------------------------------------------------------
    def fit(self, schedule, weak_labeler, batches_per_epoch=None):
        """Train on a schedule of ``(samples, epochs)`` stages, in order.

        ``samples`` is a sequence of ``(TemporalPath, label)`` pairs.  A stage
        of fewer than two samples runs no step and draws nothing from
        :attr:`rng`, since :func:`~repro.datasets.minibatch_indices` yields no
        batch of fewer than two.  An epoch's mean step loss is recorded in
        :attr:`history` when the epoch ran at least one step.
        """
        for samples, epochs in schedule:
            for _ in range(epochs):
                losses = [
                    self.train_step([samples[i] for i in indices], weak_labeler)
                    for indices in minibatch_indices(
                        len(samples), self.config.batch_size, self.rng,
                        max_batches=batches_per_epoch)
                ]
                if losses:
                    self.history.record(float(np.mean(losses)))
        return self.history
