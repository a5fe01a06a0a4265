"""Downstream tasks: gradient boosting models, metrics, task evaluators."""

from .gbm import GradientBoostingClassifier, GradientBoostingRegressor
from .metrics import (
    accuracy,
    grouped_rank_correlation,
    hit_rate,
    kendall_tau,
    mae,
    mape,
    mare,
    spearman_rho,
)
from .tasks import (
    RankingResult,
    RecommendationResult,
    TravelTimeResult,
    evaluate_ranking,
    evaluate_recommendation,
    evaluate_task,
    evaluate_travel_time,
    score_task,
)
from .tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "GradientBoostingClassifier",
    "mae",
    "mare",
    "mape",
    "kendall_tau",
    "spearman_rho",
    "grouped_rank_correlation",
    "accuracy",
    "hit_rate",
    "TravelTimeResult",
    "RankingResult",
    "RecommendationResult",
    "score_task",
    "evaluate_task",
    "evaluate_travel_time",
    "evaluate_ranking",
    "evaluate_recommendation",
]
