"""WSCCL: the advanced framework combining WSC with curriculum learning.

:class:`WSCCL` is the library's main entry point.  ``fit`` runs the full
pipeline of the paper: expert training on length-sorted meta-sets, difficulty
scoring, curriculum construction, staged training easy → hard, and a final
stage over the whole corpus.  ``fit_with_heuristic_curriculum`` gives the
Table V baseline, and ``fit_without_curriculum`` the "w/o CL" ablation: a
plan with no stages whose final stage runs ``config.epochs`` over the corpus.
Each builds its :class:`~repro.core.curriculum.CurriculumPlan` and trains it
through the one loop :meth:`~repro.core.trainer.WSCTrainer.fit`.
"""

from __future__ import annotations

import numpy as np

from .config import WSCCLConfig
from .curriculum import (
    CurriculumPlan,
    build_curriculum_stages,
    difficulty_scores,
    heuristic_curriculum_stages,
    split_into_meta_sets,
    train_experts,
)
from .model import SharedResources
from .trainer import WSCTrainer

__all__ = ["WSCCL"]


class WSCCL:
    """Weakly-Supervised Contrastive Curriculum Learning.

    Parameters
    ----------
    network:
        Road network the temporal paths live on.
    config:
        :class:`~repro.core.config.WSCCLConfig`; defaults are CPU-scaled.
    resources:
        Optional shared frozen node2vec features (reused across models).
    use_temporal:
        Set False for the WSCCL-NT ablation.

    Attributes
    ----------
    model:
        The :class:`~repro.core.encoder.TemporalPathEncoder` it trains.
    plan:
        The :class:`~repro.core.curriculum.CurriculumPlan` trained last (None
        before the first fit; no stages for "w/o CL").
    """

    # Part of the fit fingerprint in perfbench/tracer.py (``_wsccl_fit_key``).
    encoder_type = "lstm"

    def __init__(self, network, config=None, resources=None, use_temporal=True):
        self.config = config or WSCCLConfig()
        self.network = network
        self.resources = resources or SharedResources(network, self.config)
        self.use_temporal = use_temporal
        self.model = self.resources.new_encoder(seed=self.config.seed,
                                                use_temporal=use_temporal)
        self.trainer = WSCTrainer(self.model, config=self.config)
        self.plan = None
        self.experts = []

    # ------------------------------------------------------------------
    # Training entry points
    # ------------------------------------------------------------------
    def fit(self, dataset, batches_per_epoch=None, expert_batches=None):
        """Full WSCCL training (curriculum learned from expert agreement)."""
        samples = list(dataset)
        meta_sets, assignments = split_into_meta_sets(samples, self.config.num_meta_sets)
        self.experts = train_experts(
            self.resources, meta_sets, self.config, weak_labeler=dataset.weak_labeler,
            batches_per_epoch=expert_batches,
        )
        scores = difficulty_scores(samples, assignments, self.experts)
        plan = build_curriculum_stages(samples, scores, self.config.num_stages,
                                       rng=np.random.default_rng(self.config.seed))
        return self._train(plan, self.config.final_stage_epochs, dataset, batches_per_epoch)

    def fit_with_heuristic_curriculum(self, dataset, batches_per_epoch=None):
        """Table V baseline: curriculum ordered by path length only."""
        plan = heuristic_curriculum_stages(list(dataset), self.config.num_stages,
                                           rng=np.random.default_rng(self.config.seed))
        return self._train(plan, self.config.final_stage_epochs, dataset, batches_per_epoch)

    def fit_without_curriculum(self, dataset, batches_per_epoch=None):
        """"w/o CL" ablation: plain WSC training on shuffled data."""
        return self._train(CurriculumPlan(final_stage=list(dataset)), self.config.epochs,
                           dataset, batches_per_epoch)

    def _train(self, plan, final_epochs, dataset, batches_per_epoch):
        """One epoch per stage of ``plan``, then ``final_epochs`` over its final stage."""
        self.plan = plan
        schedule = [(stage, 1) for stage in plan.stages] + [(plan.final_stage, final_epochs)]
        self.trainer.fit(schedule, dataset.weak_labeler, batches_per_epoch)
        return self

    # ------------------------------------------------------------------
    def encode(self, temporal_paths):
        """TPR matrix for a list of temporal paths (the baselines' interface)."""
        return self.model.encode(temporal_paths)

    def encoder_state_dict(self):
        """Trainable encoder parameters, for use as pre-training (Fig. 7)."""
        return self.model.state_dict()

    @property
    def history(self):
        """Training history of the main model."""
        return self.trainer.history
