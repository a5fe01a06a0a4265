"""Gradient boosting: regressor (GBR) and binary classifier (GBC).

These mirror the scikit-learn estimators the paper uses as its downstream
models on top of frozen TPRs (§VII-A4) at their defaults: exact splits over
every feature and no row subsampling.  Squared-error boosting serves the two
regression tasks, logistic boosting path recommendation; both run one
boosting loop over :class:`~repro.downstream.tree.DecisionTreeRegressor`
weak learners.

A fit checks its inputs and sorts the feature columns once
(:class:`~repro.downstream.tree._Presort`).  Every round's tree grows from
that one presort, which also keeps each node's row order and candidate
splits: they depend on the node's row set, not on the residuals, so a row
set that recurs in a later round is not scanned again, and a round only
accumulates its residuals and scores the gains.  A round's new scores are the
leaf values its fit routed the training rows to, so the training matrix is
never predicted.  The presort and its kept nodes are dropped when the fit
ends.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_integer, check_real
from .tree import (DecisionTreeRegressor, _check_features, _check_predict_features,
                   _check_targets, _Presort)

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class _Booster:
    """The boosting loop and settings shared by the regressor and classifier."""

    def __init__(self, n_estimators=50, learning_rate=0.1, max_depth=3,
                 min_samples_leaf=5):
        self.n_estimators = check_integer("n_estimators", n_estimators, low=1)
        self.learning_rate = check_real("learning_rate", learning_rate, above=0)
        self.max_depth = check_integer("max_depth", max_depth, low=1)
        self.min_samples_leaf = check_integer("min_samples_leaf", min_samples_leaf, low=1)
        self._trees = []
        self._initial = 0.0
        self._num_features = None

    def _boost(self, features, initial, residuals_of):
        """Fit ``n_estimators`` trees, each to ``residuals_of(raw scores)``,
        all from one presort of the checked ``features``."""
        self._trees = []
        self._initial = initial
        self._num_features = features.shape[1]
        presort = _Presort(features)
        scores = np.full(len(features), initial)
        for _ in range(self.n_estimators):
            # Looked up at call time, so the weak learner can be swapped.
            tree = DecisionTreeRegressor(max_depth=self.max_depth,
                                         min_samples_leaf=self.min_samples_leaf)
            tree._presort = presort
            tree.fit(features, residuals_of(scores))
            scores = scores + self.learning_rate * tree._train_predictions
            self._trees.append(tree)
        return self

    def _scores(self, features):
        """Raw boosted scores (targets or logits) for ``features`` (N, D)."""
        if not self._trees:
            raise RuntimeError(f"{type(self).__name__} has not been fitted")
        features = _check_predict_features(features, self._num_features)
        scores = np.full(len(features), self._initial)
        for tree in self._trees:
            scores = scores + self.learning_rate * tree.predict(features)
        return scores


class GradientBoostingRegressor(_Booster):
    """Least-squares gradient boosting over shallow regression trees."""

    def fit(self, features, targets):
        """Fit to ``features`` (N, D), ``targets`` (N,)."""
        features = _check_features(features)
        targets = _check_targets(targets, len(features))
        return self._boost(features, float(targets.mean()),
                           lambda predictions: targets - predictions)

    def predict(self, features):
        """Predicted targets for ``features`` (N, D)."""
        return self._scores(features)


class GradientBoostingClassifier(_Booster):
    """Binary classifier: boosting on the logistic deviance gradient."""

    def fit(self, features, labels):
        """Fit to ``features`` (N, D), binary ``labels`` (N,) in {0, 1}."""
        features = _check_features(features)
        labels = _check_targets(labels, len(features), name="labels")
        if set(np.unique(labels)) - {0.0, 1.0}:
            raise ValueError("labels must be binary (0/1)")
        positive_rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        initial_logit = float(np.log(positive_rate / (1.0 - positive_rate)))
        return self._boost(features, initial_logit,
                           lambda logits: labels - _sigmoid(logits))

    def predict_proba(self, features):
        """Probability of the positive class for each row."""
        return _sigmoid(self._scores(features))

    def predict(self, features, threshold=0.5):
        """Hard 0/1 predictions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
