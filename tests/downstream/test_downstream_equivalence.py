"""Equivalence suites: the downstream engine vs the ``_reference_*`` oracles.

Three layers, matching the engine:

* metrics — vectorized Kendall/ranks/grouped exactly equal the loop oracles;
  Spearman agrees with the no-ties shortcut on tie-free inputs and with
  Pearson-on-ranks everywhere.
* trees — exact binning reproduces the reference tree bit for bit
  (flattened-vs-node ``predict`` agrees to 1e-12), including the
  ``max_features`` RNG draws; histogram binning stays statistically
  equivalent on task metrics.
* GBM — identical predictions for identical seeds on exact splits, for both
  the regressor and the classifier, with the reference tree patched in as
  the weak learner.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.downstream import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    gbm,
)
from repro.downstream.metrics import (
    _ranks,
    _reference_grouped_rank_correlation,
    _reference_kendall_tau,
    _reference_ranks,
    _reference_spearman_rho,
    grouped_rank_correlation,
    kendall_tau,
    spearman_rho,
)

# Tie-heavy by construction: few distinct values over up-to-60 entries.
tied_vectors = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.integers(min_value=-4, max_value=4).map(float)),
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.integers(min_value=-4, max_value=4).map(float)),
    ))

continuous_vectors = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.floats(min_value=-1e3, max_value=1e3,
                                      allow_nan=False, allow_infinity=False)),
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.floats(min_value=-1e3, max_value=1e3,
                                      allow_nan=False, allow_infinity=False)),
    ))


class TestMetricEquivalence:
    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_kendall_exactly_matches_pair_loop_under_ties(self, pair):
        truth, prediction = pair
        assert kendall_tau(truth, prediction) == _reference_kendall_tau(truth, prediction)

    @given(continuous_vectors)
    @settings(max_examples=60, deadline=None)
    def test_kendall_exactly_matches_pair_loop_continuous(self, pair):
        truth, prediction = pair
        assert kendall_tau(truth, prediction) == _reference_kendall_tau(truth, prediction)

    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_ranks_match_rescan_loop(self, pair):
        values, _ = pair
        np.testing.assert_array_equal(_ranks(values), _reference_ranks(values))

    @given(continuous_vectors)
    @settings(max_examples=60, deadline=None)
    def test_spearman_matches_shortcut_when_tie_free(self, pair):
        truth, prediction = pair
        if (len(np.unique(truth)) < len(truth)
                or len(np.unique(prediction)) < len(prediction)):
            return
        assert spearman_rho(truth, prediction) == pytest.approx(
            _reference_spearman_rho(truth, prediction), abs=1e-12)

    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_spearman_is_pearson_on_ranks(self, pair):
        truth, prediction = pair
        rank_truth = _ranks(truth)
        rank_prediction = _ranks(prediction)
        centered_t = rank_truth - rank_truth.mean()
        centered_p = rank_prediction - rank_prediction.mean()
        denominator = np.sqrt((centered_t ** 2).sum() * (centered_p ** 2).sum())
        expected = 0.0 if denominator == 0 else float(
            (centered_t * centered_p).sum() / denominator)
        assert spearman_rho(truth, prediction) == pytest.approx(expected, abs=1e-12)

    @given(tied_vectors,
           st.sampled_from(["kendall", "spearman"]))
    @settings(max_examples=60, deadline=None)
    def test_grouped_matches_mask_loop(self, pair, statistic):
        truth, prediction = pair
        rng = np.random.default_rng(len(truth))
        groups = rng.integers(0, max(1, len(truth) // 3), size=len(truth))
        assert grouped_rank_correlation(truth, prediction, groups, statistic) == \
            pytest.approx(_reference_grouped_rank_correlation(
                truth, prediction, groups, statistic), abs=1e-12)


# Feature matrices with deliberate value collisions (rounded normals).
tree_problems = st.tuples(
    st.integers(min_value=12, max_value=120),   # samples
    st.integers(min_value=1, max_value=6),      # features
    st.integers(min_value=1, max_value=5),      # max depth
    st.integers(min_value=1, max_value=5),      # min samples leaf
    st.integers(min_value=2, max_value=20),     # max thresholds
    st.integers(min_value=0, max_value=10_000), # seed
    st.booleans(),                              # restrict max_features
)


class ReferenceTree(DecisionTreeRegressor):
    """The per-threshold loop and per-row node walk behind the tree API."""

    def fit(self, features, targets, binned=None):
        assert binned is None, "the loop oracle has no histogram path"
        self._root = self._reference_grow(np.asarray(features, dtype=np.float64),
                                          np.asarray(targets, dtype=np.float64),
                                          depth=0)
        return self

    def predict(self, features):
        return self._reference_predict(np.asarray(features, dtype=np.float64))


@contextlib.contextmanager
def reference_weak_learners():
    """Boosters built inside grow :class:`ReferenceTree` rounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbm, "DecisionTreeRegressor", ReferenceTree)
        yield


def make_problem(num_samples, num_features, seed):
    rng = np.random.default_rng(seed)
    features = np.round(rng.normal(size=(num_samples, num_features)), 1)
    targets = features[:, 0] + rng.normal(scale=0.3, size=num_samples)
    queries = np.round(rng.normal(size=(50, num_features)), 2)
    return features, targets, queries


class TestTreeEquivalence:
    @given(tree_problems)
    @settings(max_examples=60, deadline=None)
    def test_flattened_predict_matches_node_walk_exactly(self, problem):
        samples, features, depth, leaf, thresholds, seed, restrict = problem
        x, y, queries = make_problem(samples, features, seed)
        max_features = max(1, features - 1) if restrict else None
        kwargs = dict(max_depth=depth, min_samples_leaf=leaf,
                      max_thresholds=thresholds, max_features=max_features,
                      seed=seed)
        reference = ReferenceTree(**kwargs).fit(x, y)
        vectorized = DecisionTreeRegressor(**kwargs).fit(x, y)
        for matrix in (x, queries):
            node_walk = reference.predict(matrix)
            flattened = vectorized.predict(matrix)
            np.testing.assert_allclose(flattened, node_walk, atol=1e-12, rtol=0)
            # The exact engine scans the same thresholds: bit-identical.
            np.testing.assert_array_equal(flattened, node_walk)

    def test_histogram_tree_statistically_equivalent(self):
        x, y, _ = make_problem(2000, 5, seed=7)
        exact = DecisionTreeRegressor(max_depth=4, binning="exact").fit(x, y)
        histogram = DecisionTreeRegressor(max_depth=4, binning="histogram").fit(x, y)
        exact_mae = np.abs(exact.predict(x) - y).mean()
        histogram_mae = np.abs(histogram.predict(x) - y).mean()
        assert histogram_mae <= exact_mae * 1.25 + 0.05

    def test_prebinned_fit_matches_self_binned(self):
        from repro.downstream import HistogramBins

        x, y, queries = make_problem(500, 4, seed=3)
        bins = HistogramBins(x)
        self_binned = DecisionTreeRegressor(binning="histogram").fit(x, y)
        prebinned = DecisionTreeRegressor(binning="histogram").fit(x, y, binned=bins)
        np.testing.assert_array_equal(
            self_binned.predict(queries), prebinned.predict(queries))

    def test_prebinned_shape_mismatch_rejected(self):
        from repro.downstream import HistogramBins

        x, y, _ = make_problem(100, 4, seed=3)
        bins = HistogramBins(x[:50])
        with pytest.raises(ValueError):
            DecisionTreeRegressor(binning="histogram").fit(x, y, binned=bins)


gbm_problems = st.tuples(
    st.integers(min_value=30, max_value=150),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),     # n_estimators
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1.0, 0.7]),                # subsample
)


class TestGBMEquivalence:
    @given(gbm_problems)
    @settings(max_examples=25, deadline=None)
    def test_regressor_identical_predictions_given_identical_seeds(self, problem):
        samples, features, estimators, seed, subsample = problem
        x, y, queries = make_problem(samples, features, seed)
        kwargs = dict(n_estimators=estimators, subsample=subsample, seed=seed)
        with reference_weak_learners():
            reference = GradientBoostingRegressor(**kwargs).fit(x, y)
        vectorized = GradientBoostingRegressor(**kwargs).fit(x, y)
        np.testing.assert_array_equal(
            reference.predict(queries), vectorized.predict(queries))

    @given(gbm_problems)
    @settings(max_examples=15, deadline=None)
    def test_classifier_identical_probabilities_given_identical_seeds(self, problem):
        samples, features, estimators, seed, subsample = problem
        x, _, queries = make_problem(samples, features, seed)
        labels = (x[:, 0] > 0).astype(np.int64)
        if len(np.unique(labels)) < 2:
            return
        kwargs = dict(n_estimators=estimators, subsample=subsample, seed=seed)
        with reference_weak_learners():
            reference = GradientBoostingClassifier(**kwargs).fit(x, labels)
        vectorized = GradientBoostingClassifier(**kwargs).fit(x, labels)
        np.testing.assert_array_equal(
            reference.predict_proba(queries), vectorized.predict_proba(queries))

    def test_histogram_gbm_statistically_equivalent(self):
        x, y, _ = make_problem(2000, 5, seed=11)
        exact = GradientBoostingRegressor(n_estimators=30, seed=0,
                                          binning="exact").fit(x, y)
        histogram = GradientBoostingRegressor(n_estimators=30, seed=0,
                                              binning="histogram").fit(x, y)
        exact_mae = np.abs(exact.predict(x) - y).mean()
        histogram_mae = np.abs(histogram.predict(x) - y).mean()
        assert histogram_mae <= exact_mae * 1.25 + 0.05


class TestEvaluatorEngineEquivalence:
    class LengthModel:
        """Deterministic stand-in representation model (path-shape features)."""

        def __init__(self, network):
            self.network = network

        def encode(self, temporal_paths):
            rows = []
            for tp in temporal_paths:
                rows.append([
                    self.network.path_length(list(tp.path)),
                    len(tp),
                    tp.departure_time.hour,
                    float(tp.departure_time.is_weekday),
                ])
            return np.asarray(rows)

    def test_travel_time_engine_equivalent(self, tiny_city):
        from repro.downstream import evaluate_travel_time

        model = self.LengthModel(tiny_city.network)
        with reference_weak_learners():
            reference = evaluate_travel_time(
                model, tiny_city.tasks.travel_time, n_estimators=10)
        vectorized = evaluate_travel_time(
            model, tiny_city.tasks.travel_time, n_estimators=10)
        assert vectorized.mae == pytest.approx(reference.mae, abs=1e-9)
        assert vectorized.mare == pytest.approx(reference.mare, abs=1e-9)
        assert vectorized.mape == pytest.approx(reference.mape, abs=1e-9)

    @pytest.mark.parametrize("runner", ["table3", "table4"])
    def test_table_runners_engine_equivalent(self, runner):
        """Whole table runners agree to 1e-9 with reference weak learners."""
        from repro.evaluation.experiment import HarnessConfig
        from repro.evaluation.harness import run_table3_overall, run_table4_recommendation

        def run():
            if runner == "table3":
                return run_table3_overall(HarnessConfig(), methods=("Node2vec",),
                                          include_supervised=False,
                                          include_edge_sum=False)
            return run_table4_recommendation(HarnessConfig(), methods=("Node2vec",))

        def flatten(table, prefix=""):
            flat = {}
            for key, value in table.items():
                if isinstance(value, dict):
                    flat.update(flatten(value, f"{prefix}{key}."))
                else:
                    flat[prefix + key] = float(value)
            return flat

        with reference_weak_learners():
            reference = flatten(run())
        vectorized = flatten(run())
        assert len(reference) >= 4
        assert vectorized == pytest.approx(reference, abs=1e-9)
