"""Downstream task evaluators (paper §VII-A2 / §VII-A4).

Each evaluator takes a *representation model* — any object exposing
``encode(list_of_temporal_paths) -> (N, D) numpy array`` — plus the labelled
task examples, fits the appropriate gradient boosting model on the training
split of the frozen representations, and reports the paper's metrics on the
test split (:func:`evaluate_task`; :func:`score_task` also scores the
supervised baselines' direct predictions on the same split).

Embeddings are obtained through the batched
:class:`~repro.serving.PathEmbeddingService` (length-bucketed micro-batching
plus an LRU cache shared between the train and test encodes).  The service
is numerically faithful to direct encoding, so results equal those of the
raw model; pass a ready-made service as ``model`` to share its cache across
calls, as :func:`repro.evaluation.harness.representation_task_results` does
across the three tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.tasks import task_labels, task_split
from ..serving import PathEmbeddingService
from .gbm import GradientBoostingClassifier, GradientBoostingRegressor
from .metrics import accuracy, grouped_rank_correlation, hit_rate, mae, mape, mare

__all__ = [
    "TravelTimeResult",
    "RankingResult",
    "RecommendationResult",
    "ensure_service",
    "score_task",
    "evaluate_task",
    "evaluate_travel_time",
    "evaluate_ranking",
    "evaluate_recommendation",
]


@dataclass(frozen=True)
class TravelTimeResult:
    """Travel-time estimation metrics (Table III, left)."""

    mae: float
    mare: float
    mape: float

    def as_row(self):
        return {"MAE": self.mae, "MARE": self.mare, "MAPE": self.mape}


@dataclass(frozen=True)
class RankingResult:
    """Path-ranking metrics (Table III, right)."""

    mae: float
    kendall_tau: float
    spearman_rho: float

    def as_row(self):
        return {"MAE": self.mae, "tau": self.kendall_tau, "rho": self.spearman_rho}


@dataclass(frozen=True)
class RecommendationResult:
    """Path-recommendation metrics (Table IV)."""

    accuracy: float
    hit_rate: float

    def as_row(self):
        return {"Acc": self.accuracy, "HR": self.hit_rate}


def ensure_service(model):
    """Route a representation model through the path-embedding service.

    A model that already is a :class:`PathEmbeddingService` is used as-is,
    so callers can share one cache across evaluations.
    """
    if isinstance(model, PathEmbeddingService):
        return model
    return PathEmbeddingService(model)


def score_task(task, test, predictions):
    """The paper's metrics of ``predictions`` on ``task``'s test examples;
    rank correlations are averaged over the test trips' candidate sets."""
    truth = task_labels(task, test)
    if task == "travel_time":
        return TravelTimeResult(mae=mae(truth, predictions), mare=mare(truth, predictions),
                                mape=mape(truth, predictions))
    groups = np.array([e.group for e in test])
    if task == "ranking":
        return RankingResult(
            mae=mae(truth, predictions),
            kendall_tau=grouped_rank_correlation(truth, predictions, groups, "kendall"),
            spearman_rho=grouped_rank_correlation(truth, predictions, groups, "spearman"))
    return RecommendationResult(accuracy=accuracy(truth, predictions),
                                hit_rate=hit_rate(truth, predictions))


def evaluate_task(task, model, examples, test_fraction=0.2, seed=0,
                  n_estimators=40, max_depth=3):
    """Fit a GBM (a classifier for recommendation) on ``task``'s training
    representations and score its test split."""
    train, test = task_split(task, examples, test_fraction, seed)
    if not train or not test:
        raise ValueError(f"need at least one train and one test example for {task!r}")

    service = ensure_service(model)
    train_x = service.embed([e.temporal_path for e in train])
    test_x = service.embed([e.temporal_path for e in test])
    train_y = task_labels(task, train)

    classify = task == "recommendation"
    if classify and len(np.unique(train_y)) < 2:
        # Degenerate labelled split; predict the majority class.
        predictions = np.full(len(test), int(round(train_y.mean())))
    else:
        booster = GradientBoostingClassifier if classify else GradientBoostingRegressor
        predictions = booster(n_estimators=n_estimators, max_depth=max_depth).fit(
            train_x, train_y).predict(test_x)
    return score_task(task, test, predictions)


def evaluate_travel_time(model, examples, test_fraction=0.2, seed=0,
                         n_estimators=40, max_depth=3):
    """Fit GBR on TPRs -> travel time; report MAE / MARE / MAPE on the test split."""
    return evaluate_task("travel_time", model, examples, test_fraction, seed, n_estimators, max_depth)


def evaluate_ranking(model, examples, test_fraction=0.2, seed=0,
                     n_estimators=40, max_depth=3):
    """Fit GBR on TPRs -> ranking score; report MAE / τ / ρ on the test split."""
    return evaluate_task("ranking", model, examples, test_fraction, seed, n_estimators, max_depth)


def evaluate_recommendation(model, examples, test_fraction=0.2, seed=0,
                            n_estimators=40, max_depth=3):
    """Fit GBC on TPRs -> chosen/not-chosen; report accuracy and hit rate."""
    return evaluate_task("recommendation", model, examples, test_fraction, seed,
                         n_estimators, max_depth)
