"""Tests for the downstream task evaluators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import task_labels, task_split
from repro.downstream import (
    RankingResult,
    RecommendationResult,
    TravelTimeResult,
    evaluate_ranking,
    evaluate_recommendation,
    evaluate_task,
    evaluate_travel_time,
    score_task,
)
from repro.evaluation import HarnessConfig, representation_task_results


class LengthModel:
    """A deterministic stand-in representation model: encodes path length,
    departure hour and total edge count — enough signal for the GBR to learn
    travel time reasonably well on the synthetic data."""

    def __init__(self, network):
        self.network = network

    def encode(self, temporal_paths):
        rows = []
        for tp in temporal_paths:
            length = float(sum(map(self.network.edge_length, tp.path)))
            rows.append([
                length,
                len(tp),
                tp.departure_time.hour,
                float(tp.departure_time.is_weekday),
            ])
        return np.asarray(rows)


class RandomModel:
    """Pure-noise representations (no information about the path).

    Each path maps to a fixed random vector (seeded by the path identity), so
    the model is a pure function as the serving layer's cache contract
    requires, while still carrying no signal a GBR could generalise from.
    """

    def __init__(self, dim=4, seed=0):
        self.dim = dim
        self.seed = seed

    def encode(self, temporal_paths):
        rows = []
        for tp in temporal_paths:
            departure = tp.departure_time
            slot = departure.day_of_week * 288 + int(departure.seconds // 300)
            key = hash((self.seed, tp.path, slot))
            rng = np.random.default_rng(key % (2 ** 32))
            rows.append(rng.normal(size=self.dim))
        return np.asarray(rows)


class TestEvaluateTravelTime:
    def test_returns_finite_metrics(self, tiny_city):
        model = LengthModel(tiny_city.network)
        result = evaluate_travel_time(model, tiny_city.tasks.travel_time, n_estimators=20)
        assert np.isfinite(result.mae)
        assert np.isfinite(result.mare)
        assert np.isfinite(result.mape)
        assert result.mae > 0

    def test_informative_model_beats_noise(self, tiny_city):
        informative = evaluate_travel_time(
            LengthModel(tiny_city.network), tiny_city.tasks.travel_time, n_estimators=30)
        noise = evaluate_travel_time(
            RandomModel(), tiny_city.tasks.travel_time, n_estimators=30)
        assert informative.mae < noise.mae

    def test_as_row(self, tiny_city):
        result = evaluate_travel_time(
            LengthModel(tiny_city.network), tiny_city.tasks.travel_time, n_estimators=5)
        row = result.as_row()
        assert set(row) == {"MAE", "MARE", "MAPE"}

    def test_malformed_model_rejected(self, tiny_city):
        class Broken:
            def encode(self, paths):
                return np.zeros((1, 2))   # wrong row count

        with pytest.raises(ValueError):
            evaluate_travel_time(Broken(), tiny_city.tasks.travel_time, n_estimators=5)


class TestEvaluateRanking:
    def test_returns_metrics_in_valid_ranges(self, tiny_city):
        result = evaluate_ranking(
            LengthModel(tiny_city.network), tiny_city.tasks.ranking, n_estimators=20)
        assert result.mae >= 0
        assert -1.0 <= result.kendall_tau <= 1.0
        assert -1.0 <= result.spearman_rho <= 1.0

    def test_as_row_keys(self, tiny_city):
        result = evaluate_ranking(
            LengthModel(tiny_city.network), tiny_city.tasks.ranking, n_estimators=5)
        assert set(result.as_row()) == {"MAE", "tau", "rho"}

    @pytest.mark.parametrize("test_fraction", [0.0, -0.5, 1.5])
    def test_invalid_test_fraction_rejected(self, tiny_city, test_fraction):
        # 0.0 and -0.5 used to score a silent one-trip test split.
        with pytest.raises(ValueError, match=rf"test_fraction must be a finite real in \(0, 1\), "
                                             rf"got {test_fraction}"):
            evaluate_ranking(LengthModel(tiny_city.network), tiny_city.tasks.ranking,
                             test_fraction=test_fraction, n_estimators=5)


class TestEvaluateRecommendation:
    def test_metrics_within_bounds(self, tiny_city):
        result = evaluate_recommendation(
            LengthModel(tiny_city.network), tiny_city.tasks.recommendation, n_estimators=20)
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 <= result.hit_rate <= 1.0


class TestOneEvaluator:
    @pytest.mark.parametrize("task, evaluate", [("travel_time", evaluate_travel_time),
                                                ("ranking", evaluate_ranking),
                                                ("recommendation", evaluate_recommendation)])
    def test_named_evaluators_are_evaluate_task(self, tiny_city, task, evaluate):
        model = LengthModel(tiny_city.network)
        examples = getattr(tiny_city.tasks, task)
        assert evaluate(model, examples, test_fraction=0.3, seed=2, n_estimators=5) == \
            evaluate_task(task, model, examples, test_fraction=0.3, seed=2, n_estimators=5)

    @pytest.mark.parametrize("task, result_type, expected", [
        ("travel_time", TravelTimeResult, {"MAE": 0.0, "MARE": 0.0, "MAPE": 0.0}),
        # Kendall's τ-a stays below 1 when a trip's scores tie.
        ("ranking", RankingResult, {"MAE": 0.0, "rho": 1.0}),
        ("recommendation", RecommendationResult, {"Acc": 1.0, "HR": 1.0}),
    ])
    def test_score_task_of_the_truth(self, tiny_city, task, result_type, expected):
        _, test = task_split(task, getattr(tiny_city.tasks, task), 0.5, 0)
        result = score_task(task, test, task_labels(task, test))
        assert type(result) is result_type
        assert result.as_row().items() >= expected.items()


class TestRepresentationTaskResults:
    def test_bundles_all_three(self, tiny_city):
        results = representation_task_results(
            LengthModel(tiny_city.network), tiny_city, HarnessConfig(n_estimators=10),
            tasks=("travel_time", "ranking", "recommendation"))
        assert set(results) == {"travel_time", "ranking", "recommendation"}
