"""Downstream task evaluators (paper §VII-A2 / §VII-A4).

Each evaluator takes a *representation model* — any object exposing
``encode(list_of_temporal_paths) -> (N, D) numpy array`` — plus the labelled
task examples, fits the appropriate gradient boosting model on the training
split of the frozen representations, and reports the paper's metrics on the
test split.

Embeddings are obtained through the batched
:class:`~repro.serving.PathEmbeddingService` (length-bucketed micro-batching
plus an LRU cache shared between the train and test encodes — and, via
:func:`evaluate_all_tasks`, across the three tasks).  The service is
numerically faithful to direct encoding, so results equal those of the raw
model; pass a ready-made service as ``model`` to share its cache across
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.splits import grouped_train_test_split, train_test_split
from ..serving import PathEmbeddingService
from .gbm import GradientBoostingClassifier, GradientBoostingRegressor
from .metrics import accuracy, grouped_rank_correlation, hit_rate, mae, mape, mare

__all__ = [
    "TravelTimeResult",
    "RankingResult",
    "RecommendationResult",
    "ensure_service",
    "evaluate_travel_time",
    "evaluate_ranking",
    "evaluate_recommendation",
    "evaluate_all_tasks",
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


def evaluate_travel_time(model, examples, test_fraction=0.2, seed=0,
                         n_estimators=40, max_depth=3):
    """Fit GBR on TPRs -> travel time; report MAE / MARE / MAPE on the test split."""
    train, test = train_test_split(examples, test_fraction=test_fraction, seed=seed)
    if not train or not test:
        raise ValueError("need at least one train and one test example")

    service = ensure_service(model)
    train_x = service.embed([e.temporal_path for e in train])
    test_x = service.embed([e.temporal_path for e in test])
    train_y = np.array([e.travel_time for e in train])
    test_y = np.array([e.travel_time for e in test])

    regressor = GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=max_depth, seed=seed).fit(train_x, train_y)
    predictions = regressor.predict(test_x)
    return TravelTimeResult(
        mae=mae(test_y, predictions),
        mare=mare(test_y, predictions),
        mape=mape(test_y, predictions),
    )


def evaluate_ranking(model, examples, test_fraction=0.2, seed=0,
                     n_estimators=40, max_depth=3):
    """Fit GBR on TPRs -> ranking score; report MAE / τ / ρ on the test split.

    The split is grouped by trip so the candidate set of one trip never
    straddles train and test, and the rank correlations are computed within
    each test trip's candidate set and averaged.
    """
    groups = [e.group for e in examples]
    train, test = grouped_train_test_split(examples, groups,
                                           test_fraction=test_fraction, seed=seed)
    if not train or not test:
        raise ValueError("need at least one train and one test group")

    service = ensure_service(model)
    train_x = service.embed([e.temporal_path for e in train])
    test_x = service.embed([e.temporal_path for e in test])
    train_y = np.array([e.score for e in train])
    test_y = np.array([e.score for e in test])
    test_groups = np.array([e.group for e in test])

    regressor = GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=max_depth, seed=seed).fit(train_x, train_y)
    predictions = regressor.predict(test_x)
    return RankingResult(
        mae=mae(test_y, predictions),
        kendall_tau=grouped_rank_correlation(test_y, predictions, test_groups, "kendall"),
        spearman_rho=grouped_rank_correlation(test_y, predictions, test_groups, "spearman"),
    )


def evaluate_recommendation(model, examples, test_fraction=0.2, seed=0,
                            n_estimators=40, max_depth=3):
    """Fit GBC on TPRs -> chosen/not-chosen; report accuracy and hit rate."""
    groups = [e.group for e in examples]
    train, test = grouped_train_test_split(examples, groups,
                                           test_fraction=test_fraction, seed=seed)
    if not train or not test:
        raise ValueError("need at least one train and one test group")

    service = ensure_service(model)
    train_x = service.embed([e.temporal_path for e in train])
    test_x = service.embed([e.temporal_path for e in test])
    train_y = np.array([e.chosen for e in train])
    test_y = np.array([e.chosen for e in test])

    if len(np.unique(train_y)) < 2:
        # Degenerate labelled split; predict the majority class.
        predictions = np.full(len(test_y), int(round(train_y.mean())))
    else:
        classifier = GradientBoostingClassifier(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed).fit(train_x, train_y)
        predictions = classifier.predict(test_x)
    return RecommendationResult(
        accuracy=accuracy(test_y, predictions),
        hit_rate=hit_rate(test_y, predictions),
    )


def evaluate_all_tasks(model, tasks, test_fraction=0.2, seed=0, n_estimators=40):
    """Run all three downstream evaluations against one representation model.

    ``tasks`` is a :class:`~repro.datasets.tasks.TaskDatasets`.  Returns a
    dict with keys ``travel_time``, ``ranking`` and ``recommendation``.

    One :class:`~repro.serving.PathEmbeddingService` is shared across the
    three evaluations, so paths appearing in several task datasets are
    encoded once and served from the cache afterwards.
    """
    service = ensure_service(model)
    return {
        "travel_time": evaluate_travel_time(
            service, tasks.travel_time, test_fraction=test_fraction,
            seed=seed, n_estimators=n_estimators),
        "ranking": evaluate_ranking(
            service, tasks.ranking, test_fraction=test_fraction,
            seed=seed, n_estimators=n_estimators),
        "recommendation": evaluate_recommendation(
            service, tasks.recommendation, test_fraction=test_fraction,
            seed=seed, n_estimators=n_estimators),
    }
