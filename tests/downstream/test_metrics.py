"""Tests for the evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.downstream import (
    accuracy,
    grouped_rank_correlation,
    hit_rate,
    kendall_tau,
    mae,
    mape,
    mare,
    spearman_rho,
)


class TestRegressionMetrics:
    def test_mae(self):
        assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_mae_zero_for_perfect_predictions(self):
        assert mae([5.0, 10.0], [5.0, 10.0]) == 0.0

    def test_mare(self):
        # sum|err| = 3, sum|truth| = 6 -> 0.5
        assert mare([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(0.5)

    def test_mare_rejects_all_zero_truth(self):
        with pytest.raises(ValueError):
            mare([0.0, 0.0], [1.0, 1.0])

    def test_mape_in_percent(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])


NON_FINITE_METRICS = [
    pytest.param(metric, id=metric.__name__)
    for metric in (mae, mare, mape, kendall_tau, spearman_rho, accuracy, hit_rate)
] + [
    pytest.param(lambda t, p: grouped_rank_correlation(t, p, [0, 0, 1], statistic),
                 id=f"grouped-{statistic}")
    for statistic in ("kendall", "spearman")
]


class TestNonFiniteInput:
    # A NaN used to be scored as a tie: kendall_tau([1, 2, 3], [1, nan, 3])
    # gave 1.0 and spearman_rho 0.5, while mae returned nan.
    @pytest.mark.parametrize("metric", NON_FINITE_METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["truth", "prediction"])
    def test_rejected_and_named(self, metric, bad, name):
        clean = [1.0, 2.0, 3.0]
        arrays = {"truth": list(clean), "prediction": list(clean)}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad} at index 1$"):
            metric(arrays["truth"], arrays["prediction"])

    @pytest.mark.parametrize("statistic", ["kendall", "spearman"])
    def test_grouped_checks_singleton_groups_too(self, statistic):
        # Group 1 holds one entry and is skipped, but its NaN still counts.
        with pytest.raises(ValueError, match="prediction must be finite"):
            grouped_rank_correlation([1.0, 2.0, 3.0], [1.0, 2.0, np.nan],
                                     [0, 0, 1], statistic)

    @pytest.mark.parametrize("statistic", ["kendall", "spearman"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grouped_rejects_non_finite_group_ids(self, statistic, bad):
        # NaN != NaN split [nan, nan] into two skipped singletons, so the
        # correlation read 1.0 where group ids [1, 1, 0, 0] give 0.0.
        assert grouped_rank_correlation([1, 2, 3, 4], [2, 1, 3, 4], [1, 1, 0, 0],
                                        statistic) == 0.0
        with pytest.raises(ValueError, match=rf"^groups must be finite, got {bad} at index 0$"):
            grouped_rank_correlation([1, 2, 3, 4], [2, 1, 3, 4], [bad, bad, 0, 0], statistic)

    def test_kendall_of_extreme_magnitudes_does_not_overflow(self):
        # Pair signs come from comparisons; 1.7e308 - (-1.7e308) overflows.
        huge = [-1.7e308, 1.7e308, 0.0]
        assert kendall_tau(huge, huge) == 1.0
        assert kendall_tau(huge, [1.7e308, -1.7e308, 0.0]) == -1.0


class TestRankCorrelations:
    def test_kendall_perfect_agreement(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_kendall_perfect_disagreement(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_kendall_matches_scipy(self, rng):
        truth = rng.normal(size=15)
        prediction = truth + rng.normal(scale=0.5, size=15)
        expected = stats.kendalltau(truth, prediction).correlation
        assert kendall_tau(truth, prediction) == pytest.approx(expected, abs=0.02)

    def test_spearman_perfect_agreement(self):
        assert spearman_rho([1, 2, 3], [5, 6, 7]) == pytest.approx(1.0)

    def test_spearman_matches_scipy(self, rng):
        truth = rng.normal(size=20)
        prediction = truth + rng.normal(scale=0.3, size=20)
        expected = stats.spearmanr(truth, prediction).correlation
        assert spearman_rho(truth, prediction) == pytest.approx(expected, abs=0.02)

    def test_short_inputs_return_zero(self):
        assert kendall_tau([1.0], [1.0]) == 0.0
        assert spearman_rho([1.0], [1.0]) == 0.0

    def test_spearman_tie_handling_is_pearson_on_ranks(self):
        # Regression: the historical 1 - 6*sum(d^2)/(n*(n^2-1)) shortcut is
        # only valid without ties; it returned 0.85 here.  Pearson on the
        # average ranks (scipy's definition) gives 5/6.
        truth = [1, 1, 2, 3]
        prediction = [1, 2, 2, 3]
        expected = stats.spearmanr(truth, prediction).correlation
        assert expected == pytest.approx(5.0 / 6.0)
        assert spearman_rho(truth, prediction) == pytest.approx(expected, abs=1e-12)
        assert spearman_rho(truth, prediction) != pytest.approx(0.85, abs=1e-6)

    def test_spearman_matches_scipy_under_heavy_ties(self, rng):
        truth = rng.integers(0, 3, size=25).astype(float)
        prediction = rng.integers(0, 3, size=25).astype(float)
        expected = stats.spearmanr(truth, prediction).correlation
        assert spearman_rho(truth, prediction) == pytest.approx(expected, abs=1e-12)

    def test_spearman_constant_input_returns_zero(self):
        # Correlation is undefined for constant inputs (scipy returns NaN);
        # the harness convention is 0.0, never NaN.
        assert spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_kendall_ties_match_pair_counting(self):
        from reference_metrics import _reference_kendall_tau

        truth = [1, 1, 2, 3]
        prediction = [1, 2, 2, 3]
        assert kendall_tau(truth, prediction) == \
            _reference_kendall_tau(truth, prediction)

    def test_grouped_rank_correlation_averages_groups(self):
        truth = [1, 2, 3, 3, 2, 1]
        prediction = [1, 2, 3, 1, 2, 3]   # group 0 perfect, group 1 reversed
        groups = [0, 0, 0, 1, 1, 1]
        value = grouped_rank_correlation(truth, prediction, groups, "kendall")
        assert value == pytest.approx(0.0)

    def test_grouped_skips_singleton_groups(self):
        value = grouped_rank_correlation([1, 2, 3], [1, 2, 3], [0, 0, 1], "spearman")
        assert value == pytest.approx(1.0)

    def test_grouped_single_group(self):
        truth = [1.0, 2.0, 3.0, 4.0]
        prediction = [1.0, 3.0, 2.0, 4.0]
        groups = [7, 7, 7, 7]
        assert grouped_rank_correlation(truth, prediction, groups, "kendall") == \
            pytest.approx(kendall_tau(truth, prediction))
        assert grouped_rank_correlation(truth, prediction, groups, "spearman") == \
            pytest.approx(spearman_rho(truth, prediction))

    def test_grouped_tie_heavy_groups(self, rng):
        truth = rng.integers(0, 2, size=40).astype(float)
        prediction = rng.integers(0, 2, size=40).astype(float)
        groups = rng.integers(0, 5, size=40)
        expected = np.mean([
            kendall_tau(truth[groups == g], prediction[groups == g])
            for g in np.unique(groups) if (groups == g).sum() >= 2])
        value = grouped_rank_correlation(truth, prediction, groups, "kendall")
        assert value == pytest.approx(float(expected), abs=1e-12)

    def test_grouped_all_singletons_returns_zero(self):
        assert grouped_rank_correlation([1, 2], [2, 1], [0, 1]) == 0.0

    def test_grouped_rejects_unknown_statistic(self):
        with pytest.raises(ValueError):
            grouped_rank_correlation([1, 2], [1, 2], [0, 0], "pearson")

    def test_grouped_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            grouped_rank_correlation([1, 2, 3], [1, 2, 3], [0, 0])


class TestClassificationMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1, 0], [1, 0, 0, 0]) == pytest.approx(0.75)

    def test_hit_rate_is_positive_recall(self):
        truth = [1, 1, 0, 0, 1]
        prediction = [1, 0, 0, 1, 1]
        assert hit_rate(truth, prediction) == pytest.approx(2 / 3)

    def test_hit_rate_no_positives(self):
        assert hit_rate([0, 0], [1, 0]) == 0.0

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_accuracy_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 0, 1], [1, 0])

    def test_hit_rate_rejects_shape_mismatch(self):
        # Regression: mismatched lengths used to raise an opaque IndexError
        # or silently broadcast instead of the regression metrics' ValueError.
        with pytest.raises(ValueError):
            hit_rate([1, 0, 1], [1, 0])
        with pytest.raises(ValueError):
            hit_rate([1, 0, 1], [1])

    def test_hit_rate_rejects_empty(self):
        with pytest.raises(ValueError):
            hit_rate([], [])
