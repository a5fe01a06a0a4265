"""The per-threshold loop oracle for :mod:`repro.downstream.tree`.

:class:`ReferenceTree` grows a node tree with one Python loop per feature
and per candidate threshold, and predicts with a per-row node walk.  The
engine's scan must grow the same trees bit for bit; the equivalence suites
compare the two directly and with the oracle patched into the boosters.
"""

from __future__ import annotations

import numpy as np

from repro.downstream import DecisionTreeRegressor
from repro.downstream.tree import _MIN_GAIN


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = value

    @property
    def is_leaf(self):
        return self.feature is None


class ReferenceTree(DecisionTreeRegressor):
    """The per-threshold loop and per-row node walk behind the tree API.

    ``fits`` counts the trees grown, so a test can tell that a booster
    really ran the oracle rather than the engine.
    """

    fits = 0

    def fit(self, features, targets):
        ReferenceTree.fits += 1
        features = np.asarray(features, dtype=np.float64)
        self._root = self._reference_grow(features, np.asarray(targets, dtype=np.float64),
                                          depth=0)
        self._train_predictions = self._reference_predict(features)
        return self

    def predict(self, features):
        return self._reference_predict(np.asarray(features, dtype=np.float64))

    def _reference_predict(self, features):
        return np.array([self._predict_row(row) for row in features])

    def _predict_row(self, row):
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def _reference_grow(self, features, targets, depth):
        node = _Node(value=float(targets.mean()))
        if depth >= self.max_depth or len(targets) < 2 * self.min_samples_leaf:
            return node
        if np.allclose(targets, targets[0]):
            return node

        split = self._best_split(features, targets)
        if split is None:
            return node
        feature, threshold = split
        left_mask = features[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._reference_grow(features[left_mask], targets[left_mask], depth + 1)
        node.right = self._reference_grow(features[~left_mask], targets[~left_mask], depth + 1)
        return node

    def _best_split(self, features, targets):
        num_samples, num_features = features.shape
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        parent_impurity = total_sq - total_sum ** 2 / num_samples

        best_gain = _MIN_GAIN
        best = None
        for feature in range(num_features):
            column = features[:, feature]
            thresholds = self._thresholds(column)
            if thresholds is None:
                continue
            order = np.argsort(column, kind="stable")
            sorted_column = column[order]
            sorted_targets = targets[order]
            cum_sum = np.cumsum(sorted_targets)
            cum_sq = np.cumsum(sorted_targets ** 2)
            for threshold in thresholds:
                left_count = int(np.searchsorted(sorted_column, threshold, side="right"))
                right_count = num_samples - left_count
                if left_count < self.min_samples_leaf or right_count < self.min_samples_leaf:
                    continue
                left_sum = cum_sum[left_count - 1]
                left_sq = cum_sq[left_count - 1]
                right_sum = total_sum - left_sum
                right_sq = total_sq - left_sq
                # Multiplied, not ``** 2``: on a numpy scalar ``** 2`` calls
                # libm ``pow``, which can differ in the last bit from the
                # multiply the engine's array ``** 2`` performs.
                left_impurity = left_sq - left_sum * left_sum / left_count
                right_impurity = right_sq - right_sum * right_sum / right_count
                gain = parent_impurity - left_impurity - right_impurity
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold))
        return best

    def _thresholds(self, column):
        unique = np.unique(column)
        if len(unique) < 2:
            return None
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if len(midpoints) > self.max_thresholds:
            indices = np.unique(np.linspace(
                0, len(midpoints) - 1, self.max_thresholds).astype(int))
            midpoints = midpoints[indices]
        # Dedupe candidate values: the float midpoint of near-adjacent
        # uniques can round onto a neighbouring midpoint (or the unique value
        # itself), and a duplicated candidate is scanned twice per node for
        # no gain.  Equal values give equal splits, so dropping repeats
        # cannot change the chosen split.
        return np.unique(midpoints)
