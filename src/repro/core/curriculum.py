"""Contrastive curriculum learning (paper §VI).

Two stages:

1. **Curriculum sample evaluation** — the training data is sorted by path
   length and split into ``N`` non-overlapping meta-sets.  An independent
   WSC *expert* is trained on each meta-set.  The difficulty score of a
   temporal path from meta-set ``j`` is the summed cosine similarity between
   its representation under expert ``j`` (the "ground truth") and its
   representations under every other expert (Eq. 13).  High score = the
   experts agree = an easy sample.

2. **Curriculum sample selection** — samples are ranked by difficulty score
   and distributed over ``M`` stages from easy to hard; the model is trained
   for one epoch per stage, then for a final stage over the full training
   set.

A *heuristic* curriculum (sorting by number of edges, Table V's baseline) is
also provided for the Table V runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import WSCModel
from .trainer import WSCTrainer

__all__ = [
    "split_into_meta_sets",
    "train_experts",
    "difficulty_scores",
    "build_curriculum_stages",
    "heuristic_curriculum_stages",
    "CurriculumPlan",
]


def split_into_meta_sets(samples, num_meta_sets):
    """Sort samples by path length and split into ``N`` contiguous meta-sets.

    ``samples`` is a list of ``(TemporalPath, weak_label)``.  Returns a list
    of ``N`` lists plus, per sample, the index of its meta-set (aligned with
    the *original* ordering of ``samples``).
    """
    if num_meta_sets < 1:
        raise ValueError("num_meta_sets must be >= 1")
    lengths = np.array([len(tp) for tp, _ in samples])
    order = np.argsort(lengths, kind="stable")
    assignments = np.zeros(len(samples), dtype=np.int64)
    meta_sets = [[] for _ in range(num_meta_sets)]
    splits = np.array_split(order, num_meta_sets)
    for set_index, indices in enumerate(splits):
        for sample_index in indices:
            meta_sets[set_index].append(samples[sample_index])
            assignments[sample_index] = set_index
    return meta_sets, assignments


def train_experts(network, meta_sets, config, resources=None, weak_labeler=None,
                  batches_per_epoch=None):
    """Train one independent WSC expert per meta-set.

    Each expert starts from a different random initialisation (seeded by its
    meta-set index) and sees only its own meta-set, per the paper.

    A ``weak_labeler`` is required whenever any meta-set holds samples:
    without one the experts would silently stay at their random
    initialisation and the difficulty scores downstream would be noise.
    """
    if weak_labeler is None and any(meta_sets):
        raise ValueError(
            "train_experts needs a weak_labeler when meta-sets are non-empty; "
            "untrained experts would yield meaningless difficulty scores")
    experts = []
    for set_index, meta_set in enumerate(meta_sets):
        expert = WSCModel(
            network, config=config, resources=resources,
            seed=config.seed + 100 + set_index,
        )
        trainer = WSCTrainer(expert, config=config, seed=config.seed + set_index)
        if meta_set:
            trainer.fit_on_samples(
                meta_set, weak_labeler,
                epochs=config.expert_epochs,
                batches_per_epoch=batches_per_epoch,
            )
        experts.append(expert)
    return experts


def difficulty_scores(samples, assignments, experts, batch_size=64):
    """Difficulty score per sample (Eq. 13).

    For a sample from meta-set ``j``, the score is the sum over all other
    experts ``k`` of the cosine similarity between expert ``j``'s and expert
    ``k``'s representation of the sample.  Higher = easier.
    """
    if len(experts) < 2:
        # With a single expert every sample is equally "easy".
        return np.zeros(len(samples))

    temporal_paths = [tp for tp, _ in samples]
    representations = [
        expert.encode(temporal_paths, batch_size=batch_size) for expert in experts
    ]
    normalized = []
    for matrix in representations:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        normalized.append(matrix / np.maximum(norms, 1e-12))

    scores = np.zeros(len(samples))
    for index, own_set in enumerate(assignments):
        own = normalized[own_set][index]
        total = 0.0
        for other_set in range(len(experts)):
            if other_set == own_set:
                continue
            total += float(own @ normalized[other_set][index])
        scores[index] = total
    return scores


@dataclass
class CurriculumPlan:
    """The ordered training stages produced by curriculum selection.

    ``stages`` is a list of sample lists ordered easy → hard; ``final_stage``
    covers the entire training set (the paper's ``S_{M+1}``).
    """

    stages: list = field(default_factory=list)
    final_stage: list = field(default_factory=list)
    scores: np.ndarray = None

    @property
    def num_stages(self):
        return len(self.stages)


def build_curriculum_stages(samples, scores, num_stages, rng=None):
    """Rank samples by difficulty score and split them into ``M`` stages.

    Samples are sorted easiest-first (descending score) and distributed
    evenly; samples within each stage are shuffled "to ensure some local
    variations" as the paper puts it.

    When ``num_stages`` exceeds the sample count, the stages are merged down
    to one per sample instead of emitting empty stages (which would reach
    ``WSCTrainer.fit_on_samples`` as no-op epochs and silently skew the
    curriculum's stage count).
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    samples = list(samples)
    scores = np.asarray(scores)
    if len(samples) != len(scores):
        raise ValueError("samples and scores must have the same length")
    rng = rng or np.random.default_rng(0)
    order = np.argsort(-scores, kind="stable")
    effective_stages = min(num_stages, len(samples))
    stages = []
    if effective_stages:
        for indices in np.array_split(order, effective_stages):
            indices = indices.copy()
            rng.shuffle(indices)
            stages.append([samples[i] for i in indices])
    return CurriculumPlan(stages=stages, final_stage=samples, scores=scores)


def heuristic_curriculum_stages(samples, num_stages, rng=None):
    """Heuristic curriculum baseline: order by number of edges (Table V)."""
    lengths = np.array([len(tp) for tp, _ in samples])
    # Short paths are treated as easy: score = -length so that the generic
    # "descending score = easiest first" ordering applies.
    return build_curriculum_stages(samples, -lengths, num_stages, rng=rng)
