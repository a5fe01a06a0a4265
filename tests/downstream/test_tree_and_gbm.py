"""Tests for the decision tree and gradient boosting models."""

from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

from repro.downstream import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.downstream import tree as tree_module
from repro.downstream.tree import _candidates, _Presort
from reference_tree import ReferenceTree


def regression_problem(rng, samples=200, noise=0.1):
    x = rng.uniform(-2, 2, size=(samples, 3))
    y = np.where(x[:, 0] > 0, 2.0, -1.0) + 0.5 * x[:, 1] + rng.normal(0, noise, samples)
    return x, y


BOOSTERS = (GradientBoostingRegressor, GradientBoostingClassifier)


def fitted_models(rng):
    """A tree and both boosters, each fitted on the same 4-column matrix."""
    x = rng.normal(size=(60, 4))
    y = x[:, 0] + rng.normal(0, 0.1, 60)
    classifier = GradientBoostingClassifier(n_estimators=3).fit(x, x[:, 0] > 0)
    return x, [
        (DecisionTreeRegressor().fit(x, y), "predict"),
        (GradientBoostingRegressor(n_estimators=3).fit(x, y), "predict"),
        (classifier, "predict"),
        (classifier, "predict_proba"),
    ]


class TestSettings:
    def test_constructors_take_only_the_output_changing_options(self):
        def settable(cls):
            return list(inspect.signature(cls).parameters)

        assert settable(DecisionTreeRegressor) == [
            "max_depth", "min_samples_leaf", "max_thresholds"]
        for booster in BOOSTERS:
            assert settable(booster) == [
                "n_estimators", "learning_rate", "max_depth", "min_samples_leaf"]

    @pytest.mark.parametrize("booster", BOOSTERS)
    @pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("nan"), float("inf"), True, "x"])
    def test_booster_rejects_bad_learning_rate(self, booster, learning_rate):
        # Regression: learning_rate=-1.0 used to fit a diverging model, True
        # boosted at rate 1 and "x" raised a TypeError from math.isfinite.
        with pytest.raises(ValueError, match="learning_rate"):
            booster(learning_rate=learning_rate)

    @pytest.mark.parametrize("booster", BOOSTERS)
    @pytest.mark.parametrize("setting", ["max_depth", "min_samples_leaf"])
    def test_booster_rejects_sizes_below_one_at_construction(self, booster, setting):
        # Regression: max_depth / min_samples_leaf < 1 used to fail only at
        # the first fit.
        with pytest.raises(ValueError, match=setting):
            booster(**{setting: 0})

    @pytest.mark.parametrize("model, setting", [
        (DecisionTreeRegressor, "max_depth"), (DecisionTreeRegressor, "min_samples_leaf"),
        (DecisionTreeRegressor, "max_thresholds"),
        (GradientBoostingRegressor, "n_estimators"), (GradientBoostingClassifier, "n_estimators"),
        (GradientBoostingRegressor, "max_depth")])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_sizes_must_be_integers(self, model, setting, value):
        # Regression: True was read as 1, and n_estimators=2.5 failed only
        # at fit, with a TypeError from range.
        with pytest.raises(ValueError, match=f"{setting} must be an integer >= 1, got {value!r}"):
            model(**{setting: value})


class TestPredictInput:
    @pytest.mark.parametrize("booster, method",
                             [(GradientBoostingRegressor, "predict"),
                              (GradientBoostingClassifier, "predict"),
                              (GradientBoostingClassifier, "predict_proba")])
    def test_unfitted_booster_raises(self, booster, method):
        # Regression: an unfitted booster used to predict its 0.0 / 0.5 prior.
        with pytest.raises(RuntimeError, match="not been fitted"):
            getattr(booster(), method)(np.ones((2, 4)))

    @pytest.mark.parametrize("case", ["fewer columns", "more columns"])
    def test_wrong_width_rejected_naming_both_widths(self, rng, case):
        # Regression: a model fit on 4 columns used to predict on 1 or 8.
        x, models = fitted_models(rng)
        matrix = x[:, :1] if case == "fewer columns" else np.hstack([x, x])
        width = matrix.shape[1]
        for model, method in models:
            with pytest.raises(ValueError, match=rf"4 features.*\(60, {width}\)"):
                getattr(model, method)(matrix)

    def test_one_dimensional_row_rejected(self, rng):
        # Regression: a 1-D row used to raise a raw IndexError.
        x, models = fitted_models(rng)
        for model, method in models:
            with pytest.raises(ValueError, match=r"4 features.*\(4,\)"):
                getattr(model, method)(x[0])


class TestNonFiniteInput:
    """NaN and ±inf are rejected by name instead of fitting or routing silently."""

    @pytest.mark.parametrize("model, name",
                             [(DecisionTreeRegressor(), "targets"),
                              (GradientBoostingRegressor(n_estimators=2), "targets"),
                              (GradientBoostingClassifier(n_estimators=2), "labels")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, rng, model, name, bad):
        # Regression: a NaN target fitted a model that predicted NaN.
        x = rng.normal(size=(30, 3))
        y = (x[:, 0] > 0).astype(float)
        y[4] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            model.fit(x, y)

    @pytest.mark.parametrize("model", [DecisionTreeRegressor(),
                                       GradientBoostingRegressor(n_estimators=2),
                                       GradientBoostingClassifier(n_estimators=2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_row_rejected_at_fit(self, rng, model, bad):
        # Regression: NaN and inf feature rows fitted silently.
        x = rng.normal(size=(30, 3))
        labels = (x[:, 0] > 0).astype(float)
        x[7, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            model.fit(x, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_row_rejected_at_predict(self, rng, bad):
        # Regression: NaN query rows were silently routed right.
        x, models = fitted_models(rng)
        queries = x[:5].copy()
        queries[2, 0] = bad
        for model, method in models:
            with pytest.raises(ValueError, match="features must be finite"):
                getattr(model, method)(queries)


class TestPresort:
    def test_presort_of_another_matrix_is_not_reused(self, rng):
        # A tree handed the presort of one matrix but fitted on another must
        # sort the matrix it was given, not split on stale row orders.
        x = rng.normal(size=(40, 3))
        other = rng.normal(size=(40, 3))
        y = other[:, 0] + rng.normal(0, 0.1, 40)
        tree = DecisionTreeRegressor()
        tree._presort = _Presort(x)
        tree.fit(other, y)
        np.testing.assert_array_equal(
            tree.predict(other), DecisionTreeRegressor().fit(other, y).predict(other))
        # An equal copy is another matrix too; the presort is dropped after use.
        tree._presort = _Presort(x)
        tree.fit(x.copy(), y)
        assert tree._presort is None
        np.testing.assert_array_equal(
            tree.predict(x), DecisionTreeRegressor().fit(x, y).predict(x))

    def test_shared_presort_keeps_node_candidates_per_setting(self, rng):
        x = np.round(rng.normal(size=(60, 3)), 1)
        y = x[:, 0] + rng.normal(0, 0.1, 60)
        presort = _Presort(x)
        all_settings = [dict(min_samples_leaf=10, max_thresholds=4),
                        dict(min_samples_leaf=1, max_thresholds=40)]
        for settings in all_settings:
            tree = DecisionTreeRegressor(max_depth=3, **settings)
            tree._presort = presort
            tree.fit(x, y)
            fresh = DecisionTreeRegressor(max_depth=3, **settings).fit(x, y)
            np.testing.assert_array_equal(tree.predict(x), fresh.predict(x))
            np.testing.assert_array_equal(tree._threshold, fresh._threshold)
        # Every kept node, the root and those below it, under each setting:
        # its order is the stable sort of its rows and its candidates are a
        # fresh scan's under that node's own setting.
        kept = {}
        for (rows, leaf, thresholds), (order, candidates) in presort._nodes.items():
            rows = np.frombuffer(rows, dtype=np.int64)
            kept.setdefault((leaf, thresholds), []).append(len(rows))
            np.testing.assert_array_equal(
                order, rows[np.argsort(x[rows], axis=0, kind="stable")].T)
            expected = _candidates(presort.columns, order, leaf, thresholds)
            assert (candidates is None) == (expected is None)
            for got, want in zip(candidates or (), expected or ()):
                np.testing.assert_array_equal(got, want)
        assert set(kept) == {(s["min_samples_leaf"], s["max_thresholds"])
                             for s in all_settings}
        for sizes in kept.values():
            assert 60 in sizes and min(sizes) < 60

    def test_booster_scans_each_node_once(self, rng, monkeypatch):
        # 30 rounds regrow the same row sets: each (rows, settings) key is
        # scanned for candidates once, however many rounds split it.
        x = np.round(rng.normal(size=(80, 4)), 1)
        y = x[:, 0] + np.sin(3 * x[:, 1]) + rng.normal(0, 0.1, 80)
        keys = []

        def counting_candidates(columns, order, min_samples_leaf, max_thresholds):
            keys.append((np.sort(order[0]).tobytes(), min_samples_leaf,
                         max_thresholds))
            return _candidates(columns, order, min_samples_leaf, max_thresholds)

        lookups = []
        node = _Presort.node

        def counting_node(presort, rows, *args):
            lookups.append(rows.tobytes())
            return node(presort, rows, *args)

        monkeypatch.setattr(tree_module, "_candidates", counting_candidates)
        monkeypatch.setattr(_Presort, "node", counting_node)
        model = GradientBoostingRegressor(n_estimators=30).fit(x, y)
        assert len(model._trees) == 30
        assert len(keys) == len(set(keys))
        assert len(set(keys)) == len(set(lookups)) < len(lookups)

    @pytest.mark.parametrize("booster", BOOSTERS)
    def test_refit_booster_sorts_the_new_matrix(self, rng, booster):
        x = rng.normal(size=(50, 4))
        other = rng.normal(size=(50, 4))
        labels = (other[:, 1] > 0).astype(float)
        model = booster(n_estimators=4).fit(x, (x[:, 0] > 0).astype(float))
        model.fit(other, labels)
        fresh = booster(n_estimators=4).fit(other, labels)
        np.testing.assert_array_equal(model.predict(other), fresh.predict(other))


class TestTrainPredictions:
    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    def test_fit_routes_each_training_row_to_its_predict_leaf(self, rng, max_depth):
        x = np.round(rng.normal(size=(80, 3)), 1)
        y = x[:, 0] + rng.normal(0, 0.3, 80)
        tree = DecisionTreeRegressor(max_depth=max_depth, min_samples_leaf=2).fit(x, y)
        np.testing.assert_array_equal(tree._train_predictions, tree.predict(x))

    @pytest.mark.parametrize("booster", BOOSTERS)
    def test_booster_fit_never_predicts_the_training_matrix(self, rng, booster,
                                                            monkeypatch):
        x = rng.normal(size=(60, 4))
        labels = (x[:, 0] > 0).astype(float)
        expected = booster(n_estimators=5).fit(x, labels).predict(x)

        def refuse(tree, features):
            raise AssertionError("a booster fit called DecisionTreeRegressor.predict")

        monkeypatch.setattr(DecisionTreeRegressor, "predict", refuse)
        model = booster(n_estimators=5).fit(x, labels)
        monkeypatch.undo()
        np.testing.assert_array_equal(model.predict(x), expected)


class TestDecisionTree:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        # Regression: max_thresholds=0 used to give a tree that never splits.
        with pytest.raises(ValueError, match="max_thresholds"):
            DecisionTreeRegressor(max_thresholds=0)

    def test_fit_requires_2d_features(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones(5), np.ones(5))

    def test_fit_requires_aligned_lengths(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_constant_target_gives_constant_prediction(self):
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.full(30, 7.0)
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), 7.0)

    def test_learns_simple_threshold(self, rng):
        x, y = regression_problem(rng, noise=0.0)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=2).fit(x, y)
        predictions = tree.predict(x)
        # A depth-3 tree should explain most of the step function.
        residual = np.abs(predictions - y).mean()
        assert residual < 0.5

    def test_depth_one_uses_single_split(self, rng):
        x, y = regression_problem(rng, noise=0.0)
        stump = DecisionTreeRegressor(max_depth=1, min_samples_leaf=2).fit(x, y)
        assert len(np.unique(stump.predict(x))) <= 2

    def test_deeper_tree_fits_better(self, rng):
        x, y = regression_problem(rng)
        shallow = DecisionTreeRegressor(max_depth=1).fit(x, y).predict(x)
        deep = DecisionTreeRegressor(max_depth=5).fit(x, y).predict(x)
        assert np.abs(deep - y).mean() <= np.abs(shallow - y).mean()

    def test_thresholds_are_deduplicated(self):
        # Regression: midpoints of near-adjacent unique values can round
        # onto each other in float arithmetic, so the same candidate
        # threshold was scanned twice per node.  The loop oracle keeps the
        # per-column threshold list; the scan must match it (equivalence suite).
        tree = ReferenceTree(max_thresholds=16)
        base = 1.0
        ulps = [base]
        for _ in range(6):
            ulps.append(np.nextafter(ulps[-1], 2.0))
        column = np.array(ulps + [2.0, 3.0])
        thresholds = tree._thresholds(column)
        assert thresholds is not None
        assert len(thresholds) == len(np.unique(thresholds))
        assert (np.diff(thresholds) > 0).all()
        # A column wide enough to trigger linspace subsampling still dedupes.
        wide = np.arange(40.0)
        thresholds = tree._thresholds(wide)
        assert len(thresholds) <= 16
        assert len(thresholds) == len(np.unique(thresholds))

    def test_equal_thresholds_on_two_features_are_both_candidates(self):
        # Threshold dedupe is per feature: column 0's only midpoint, 0.5,
        # must not hide column 1's equal first midpoint, the best split.
        x = np.column_stack([np.tile([0.0, 1.0], 10),
                             np.repeat([0.0, 1.0, 2.0], [6, 7, 7])])
        y = (x[:, 1] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=1, min_samples_leaf=2).fit(x, y)
        assert (tree._feature[0], tree._threshold[0]) == (1, 0.5)
        np.testing.assert_array_equal(tree.predict(x), y)

    def test_midpoint_rounded_onto_last_value_does_not_divide_by_zero(self):
        # Regression: the float midpoint of two adjacent doubles can round up
        # onto the upper one, so that candidate sends every row left.  The
        # exact split search divided by its empty right side (RuntimeWarning)
        # before masking it out.
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        x = np.column_stack([[low] * 6 + [high] * 6, np.arange(12.0)])
        y = np.array([0.0] * 6 + [1.0] * 6)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree.fit(x, y)
        np.testing.assert_array_equal(tree.predict(x), y)
        # Same tree as the per-threshold loop oracle.
        oracle = ReferenceTree(max_depth=2, min_samples_leaf=2)
        oracle._root = oracle._reference_grow(x, y, depth=0)
        np.testing.assert_array_equal(oracle._reference_predict(x), y)


class TestGradientBoostingRegressor:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_boosting_improves_over_single_tree(self, rng):
        x, y = regression_problem(rng)
        single = DecisionTreeRegressor(max_depth=2).fit(x, y).predict(x)
        boosted = GradientBoostingRegressor(n_estimators=40, max_depth=2).fit(x, y).predict(x)
        assert np.abs(boosted - y).mean() < np.abs(single - y).mean()

    def test_more_estimators_fit_training_data_better(self, rng):
        x, y = regression_problem(rng)
        few = GradientBoostingRegressor(n_estimators=5).fit(x, y).predict(x)
        many = GradientBoostingRegressor(n_estimators=60).fit(x, y).predict(x)
        assert np.abs(many - y).mean() < np.abs(few - y).mean()

    def test_generalises_to_held_out_data(self, rng):
        x, y = regression_problem(rng, samples=400, noise=0.05)
        model = GradientBoostingRegressor(n_estimators=50).fit(x[:300], y[:300])
        test_error = np.abs(model.predict(x[300:]) - y[300:]).mean()
        baseline_error = np.abs(y[300:] - y[:300].mean()).mean()
        assert test_error < baseline_error * 0.6


class TestGradientBoostingClassifier:
    def classification_problem(self, rng, samples=300):
        x = rng.normal(size=(samples, 4))
        labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        return x, labels

    def test_rejects_non_binary_labels(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(x, np.arange(10))

    def test_probabilities_in_unit_interval(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=20).fit(x, y)
        probabilities = model.predict_proba(x)
        assert ((probabilities >= 0) & (probabilities <= 1)).all()

    def test_accuracy_beats_chance(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=40).fit(x[:200], y[:200])
        predictions = model.predict(x[200:])
        accuracy = (predictions == y[200:]).mean()
        assert accuracy > 0.8

    def test_predict_threshold(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=10).fit(x, y)
        strict = model.predict(x, threshold=0.9).sum()
        lenient = model.predict(x, threshold=0.1).sum()
        assert lenient >= strict
