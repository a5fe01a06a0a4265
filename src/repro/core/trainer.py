"""Training loops for the WSC (basic) framework.

:class:`WSCTrainer` trains one :class:`~repro.core.model.WSCModel` with the
combined global/local weakly-supervised contrastive loss over minibatches of
temporal paths.  It is reused by the curriculum stage (to train experts and
to run the staged curriculum) and by the ablation table runners.
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

    @property
    def final_loss(self):
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    def improved(self):
        """True when the last epoch's loss is below the first epoch's."""
        if len(self.epoch_losses) < 2:
            return False
        return self.epoch_losses[-1] < self.epoch_losses[0]


class WSCTrainer:
    """Minibatch trainer for the weakly-supervised contrastive objective.

    Parameters
    ----------
    model:
        The :class:`~repro.core.model.WSCModel` to train.
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

        Returns the scalar loss value of the step.
        """
        augmented = augment_with_positive_views(batch, weak_labeler, self.rng)
        temporal_paths = [tp for tp, _ in augmented]
        contrast_sets = build_contrast_sets(augmented)

        self.model.train()
        encoded = self.model(temporal_paths)
        edge_sets = sample_edge_sets(
            augmented, contrast_sets, encoded.mask, self.rng,
            edges_per_path=self.config.local_edges_per_path,
        )
        loss = combined_wsc_loss(
            encoded.tprs,
            encoded.edge_representations,
            contrast_sets,
            edge_sets,
            lambda_balance=self.config.lambda_balance,
            temperature=self.config.temperature,
        )
        if not loss.requires_grad:
            return float(loss.data)

        self.optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return float(loss.data)

    # ------------------------------------------------------------------
    def fit(self, dataset, epochs=None, batches_per_epoch=None):
        """Train for ``epochs`` passes (default: the config's epoch count)."""
        epochs = self.config.epochs if epochs is None else epochs
        return self.fit_on_samples(dataset, dataset.weak_labeler, epochs=epochs,
                                   batches_per_epoch=batches_per_epoch)

    def fit_on_samples(self, samples, weak_labeler, epochs=1, batches_per_epoch=None):
        """Train on a sequence of ``(TemporalPath, label)`` pairs.

        The curriculum stages pass explicit sample lists; :meth:`fit` passes
        the dataset itself.  An epoch's mean step loss is recorded in
        :attr:`history` when the epoch ran at least one step.
        """
        samples = list(samples)
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
