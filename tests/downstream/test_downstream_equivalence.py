"""Equivalence suites: the downstream engine vs its loop oracles,
``reference_metrics``' ``_reference_*`` functions and
``reference_tree.ReferenceTree``.

Three layers, matching the engine:

* metrics — vectorized Kendall/ranks/grouped exactly equal the loop oracles;
  Spearman agrees with the no-ties shortcut on tie-free inputs and with
  Pearson-on-ranks everywhere.
* trees — a child's row order filtered from its parent's is the stable
  sort of the child, and the vectorized split scan reproduces the
  reference tree bit for bit (flattened-vs-node ``predict`` agrees to
  1e-12) across depth, leaf size, threshold budget and up to 40 mixed
  columns.
* GBM — identical predictions for both the regressor and the classifier,
  with the reference tree patched in as the weak learner.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    grouped_rank_correlation,
    kendall_tau,
    spearman_rho,
)
from repro.downstream.tree import _nearly_constant, _Presort, _restrict
from reference_metrics import (
    _reference_grouped_rank_correlation,
    _reference_kendall_tau,
    _reference_ranks,
    _reference_spearman_rho,
)
from reference_tree import ReferenceTree

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


def candidate_set_examples(test):
    """Ranking candidate sets hold 1–4 paths (the trip and up to three
    alternatives); pin those sizes, with ties, as explicit examples."""
    for truth, prediction in (
            ([0.5], [2.0]),
            ([1.0, 1.0], [0.3, 0.7]),
            ([1.0, 0.4], [0.2, 0.2]),
            ([1.0, 0.5, 0.5], [0.9, 0.1, 0.1]),
            ([1.0, 0.6, 0.6], [0.4, 0.8, 0.4]),
            ([1.0, 0.7, 0.2, 0.7], [0.5, 0.5, 0.1, 0.9]),
            ([0.3, 0.3, 0.3, 0.3], [1.0, 2.0, 3.0, 4.0])):
        test = example((np.array(truth), np.array(prediction)))(test)
    return test


class TestMetricEquivalence:
    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    @candidate_set_examples
    def test_kendall_exactly_matches_pair_loop_under_ties(self, pair):
        truth, prediction = pair
        assert kendall_tau(truth, prediction) == _reference_kendall_tau(truth, prediction)

    @given(continuous_vectors)
    @settings(max_examples=60, deadline=None)
    @candidate_set_examples
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


# Up to 40 feature columns of mixed kinds (see ``mixed_columns``), so one
# matrix holds features with no candidate split, with fewer unique values
# than the threshold budget and with more.
tree_problems = st.tuples(
    st.integers(min_value=12, max_value=120),   # samples
    st.integers(min_value=1, max_value=40),     # features
    st.integers(min_value=1, max_value=5),      # max depth
    st.integers(min_value=1, max_value=5),      # min samples leaf
    st.integers(min_value=1, max_value=20),     # max thresholds
    st.integers(min_value=0, max_value=10_000), # seed
)


@contextlib.contextmanager
def reference_weak_learners():
    """Boosters built inside grow :class:`ReferenceTree` rounds."""
    before = ReferenceTree.fits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbm, "DecisionTreeRegressor", ReferenceTree)
        yield
    # Guard: the block really fitted oracle trees, so a test cannot end up
    # comparing the engine with itself.
    assert ReferenceTree.fits > before


def make_problem(num_samples, num_features, seed):
    rng = np.random.default_rng(seed)
    features = np.round(rng.normal(size=(num_samples, num_features)), 1)
    targets = features[:, 0] + rng.normal(scale=0.3, size=num_samples)
    queries = np.round(rng.normal(size=(50, num_features)), 2)
    return features, targets, queries


def mixed_columns(num_samples, num_features, seed):
    """A problem whose columns are, at random, constant (no candidate),
    all tied over two or three values, rounded normals (tens of unique
    values) or continuous (one unique value per row)."""
    rng = np.random.default_rng(seed)

    def column(kind):
        if kind == 0:
            return np.full(num_samples, np.round(rng.normal(), 1))
        if kind == 1:
            return rng.integers(0, rng.integers(2, 4), size=num_samples).astype(float)
        if kind == 2:
            return np.round(rng.normal(size=num_samples), 1)
        return rng.normal(size=num_samples)

    kinds = rng.integers(0, 4, size=num_features)
    features = np.column_stack([column(kind) for kind in kinds])
    targets = features[:, kinds > 0].sum(axis=1) + rng.normal(scale=0.3,
                                                             size=num_samples)
    queries = np.round(rng.normal(size=(50, num_features)), 2)
    return features, targets, queries


# Tie-heavy matrices plus a parent row set and a child subset of it.
tied_sorts = st.tuples(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=6),
).flatmap(lambda shape: st.tuples(
    hnp.arrays(dtype=np.float64, shape=shape,
               elements=st.integers(min_value=-2, max_value=2).map(float)),
    hnp.arrays(dtype=np.bool_, shape=shape[0]),
    hnp.arrays(dtype=np.bool_, shape=shape[0]),
))


def stable_sort_rows(features, rows):
    """Each column's stable sort of ``features[rows]``, as row ids (D, n)."""
    return rows[np.argsort(features[rows], axis=0, kind="stable")].T


class TestPresortEquivalence:
    @given(tied_sorts)
    @settings(max_examples=80, deadline=None)
    def test_filtered_child_order_is_the_stable_sort_of_the_child(self, problem):
        features, in_parent, in_child = problem
        parent = np.flatnonzero(in_parent)
        child = np.flatnonzero(in_parent & in_child)
        presort = _Presort(features)
        np.testing.assert_array_equal(
            presort.order, stable_sort_rows(features, np.arange(len(features))))
        parent_order = _restrict(presort.order, parent, len(features))
        np.testing.assert_array_equal(parent_order, stable_sort_rows(features, parent))
        order = _restrict(parent_order, child, len(features))
        np.testing.assert_array_equal(order, stable_sort_rows(features, child))


def vector_near(first):
    """Finite vectors led by ``first``, their other entries on, one ulp
    inside or one ulp outside ``np.allclose``'s default tolerance around
    it, or anywhere within ten tolerances."""
    tolerance = 1e-8 + 1e-5 * abs(first)
    edges = [first, first + tolerance, first - tolerance]
    edges += [np.nextafter(edge, direction) for edge in edges[1:]
              for direction in (-np.inf, np.inf)]
    entry = st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=-10.0, max_value=10.0).map(
            lambda scale: first + scale * tolerance))
    return st.lists(entry, max_size=12).map(
        lambda rest: np.array([first] + rest, dtype=np.float64))


# Finite vectors: clustered at the tolerance edge, or spread anywhere.
closeness_vectors = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6).flatmap(vector_near),
    hnp.arrays(dtype=np.float64, shape=st.integers(1, 20),
               elements=st.floats(min_value=-1e6, max_value=1e6)))


class TestNearlyConstant:
    @given(closeness_vectors)
    @settings(max_examples=400, deadline=None)
    @example(np.array([1.0, 1.0 + 1e-8 + 1e-5]))
    @example(np.array([0.0, 1e-8, -1e-8]))
    def test_decides_as_allclose_on_finite_vectors(self, values):
        assert _nearly_constant(values) == np.allclose(values, values[0])


class TestTreeEquivalence:
    @given(tree_problems)
    @settings(max_examples=60, deadline=None)
    # Two features isolate the same rows with mathematically equal gain; the
    # oracle used to square its scalar sums with ``pow`` and pick the other.
    @example((12, 2, 1, 1, 2, 6353))
    @example((110, 15, 5, 1, 15, 9203))
    # One threshold per feature: the subsample keeps only the first midpoint.
    @example((120, 12, 3, 2, 1, 7))
    def test_flattened_predict_matches_node_walk_exactly(self, problem):
        samples, features, depth, leaf, thresholds, seed = problem
        x, y, queries = mixed_columns(samples, features, seed)
        kwargs = dict(max_depth=depth, min_samples_leaf=leaf,
                      max_thresholds=thresholds)
        reference = ReferenceTree(**kwargs).fit(x, y)
        vectorized = DecisionTreeRegressor(**kwargs).fit(x, y)
        for matrix in (x, queries):
            node_walk = reference.predict(matrix)
            flattened = vectorized.predict(matrix)
            np.testing.assert_allclose(flattened, node_walk, atol=1e-12, rtol=0)
            # The vectorized scan covers the same thresholds: bit-identical.
            np.testing.assert_array_equal(flattened, node_walk)


gbm_problems = st.tuples(
    st.integers(min_value=30, max_value=150),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),     # n_estimators
    st.integers(min_value=0, max_value=10_000),
)


class TestGBMEquivalence:
    @given(gbm_problems)
    @settings(max_examples=25, deadline=None)
    def test_regressor_identical_predictions_given_identical_seeds(self, problem):
        samples, features, estimators, seed = problem
        x, y, queries = make_problem(samples, features, seed)
        kwargs = dict(n_estimators=estimators)
        with reference_weak_learners():
            reference = GradientBoostingRegressor(**kwargs).fit(x, y)
        vectorized = GradientBoostingRegressor(**kwargs).fit(x, y)
        np.testing.assert_array_equal(
            reference.predict(queries), vectorized.predict(queries))

    @given(gbm_problems)
    @settings(max_examples=15, deadline=None)
    def test_classifier_identical_probabilities_given_identical_seeds(self, problem):
        samples, features, estimators, seed = problem
        x, _, queries = make_problem(samples, features, seed)
        labels = (x[:, 0] > 0).astype(np.int64)
        if len(np.unique(labels)) < 2:
            return
        kwargs = dict(n_estimators=estimators)
        with reference_weak_learners():
            reference = GradientBoostingClassifier(**kwargs).fit(x, labels)
        vectorized = GradientBoostingClassifier(**kwargs).fit(x, labels)
        np.testing.assert_array_equal(
            reference.predict_proba(queries), vectorized.predict_proba(queries))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_mixed_columns_identical(self, seed):
        # 24 columns of every kind: rounds share one presort and its kept
        # nodes, including features that never offer a split.
        x, y, queries = mixed_columns(150, 24, seed)
        labels = (y > np.median(y)).astype(np.int64)
        with reference_weak_learners():
            reference = (GradientBoostingRegressor(n_estimators=10).fit(x, y),
                         GradientBoostingClassifier(n_estimators=10).fit(x, labels))
        vectorized = (GradientBoostingRegressor(n_estimators=10).fit(x, y),
                      GradientBoostingClassifier(n_estimators=10).fit(x, labels))
        for matrix in (x, queries):
            np.testing.assert_array_equal(reference[0].predict(matrix),
                                          vectorized[0].predict(matrix))
            np.testing.assert_array_equal(reference[1].predict_proba(matrix),
                                          vectorized[1].predict_proba(matrix))

    def test_reference_swap_grows_oracle_trees(self):
        x, y, _ = make_problem(40, 3, seed=0)
        before = ReferenceTree.fits
        with reference_weak_learners():
            model = GradientBoostingRegressor(n_estimators=3).fit(x, y)
        assert ReferenceTree.fits - before == 3
        assert [type(tree) for tree in model._trees] == [ReferenceTree] * 3
        engine = GradientBoostingRegressor(n_estimators=3).fit(x, y)
        assert [type(tree) for tree in engine._trees] == [DecisionTreeRegressor] * 3


class TestEvaluatorEngineEquivalence:
    class LengthModel:
        """Deterministic stand-in representation model (path-shape features)."""

        def __init__(self, network):
            self.network = network

        def encode(self, temporal_paths):
            rows = []
            for tp in temporal_paths:
                rows.append([
                    float(sum(map(self.network.edge_length, tp.path))),
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
