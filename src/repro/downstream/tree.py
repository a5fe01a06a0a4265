"""CART-style regression trees, the weak learners for gradient boosting.

The paper maps frozen TPRs to task labels with scikit-learn's Gradient
Boosting Regressor / Classifier; scikit-learn is unavailable offline, so
:mod:`repro.downstream.gbm` rebuilds the estimator on top of these trees.

A node's best split comes from one cumulative-sum scan over every feature
simultaneously, covering the deduplicated midpoints of unique values (at
most ``max_thresholds`` per feature).  The fitted tree is flattened into
``(feature, threshold, left, right, value)`` arrays, so ``predict`` is a
batch traversal with no per-row Python.

The original per-threshold Python loop and per-row ``predict`` walk are kept
as :meth:`DecisionTreeRegressor._reference_grow` and
:meth:`DecisionTreeRegressor._reference_predict`; the equivalence suites
check that the scan grows bit-identical trees.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecisionTreeRegressor"]

_MIN_GAIN = 1e-12


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


def _check_at_least_one(**values):
    """Reject any size-like setting below 1, naming it."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def _check_predict_features(features, num_features):
    """``features`` as a float64 (N, ``num_features``) matrix, or a ValueError."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != num_features:
        raise ValueError(f"model was fitted on {num_features} features; predict "
                         f"needs an (N, {num_features}) matrix, got shape "
                         f"{features.shape}")
    return features


class DecisionTreeRegressor:
    """Least-squares regression tree with depth / leaf-size limits.

    Split finding uses the classic variance-reduction criterion evaluated on
    a bounded number of candidate thresholds per feature, which keeps fitting
    fast on the small embedding matrices used here.
    """

    def __init__(self, max_depth=3, min_samples_leaf=5, max_thresholds=16):
        _check_at_least_one(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                            max_thresholds=max_thresholds)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self._num_features = None
        # Flattened tree: feature is -1 at leaves.
        self._feature = None
        self._threshold = None
        self._left = None
        self._right = None
        self._value = None

    # ------------------------------------------------------------------
    def fit(self, features, targets):
        """Fit the tree to ``features`` (N, D) and ``targets`` (N,)."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(features) != len(targets):
            raise ValueError("features and targets must have the same length")
        if len(features) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        nodes = []
        self._grow_vectorized(features, targets, np.arange(len(targets)),
                              depth=0, nodes=nodes)
        self._num_features = features.shape[1]
        self._feature = np.array([node[0] for node in nodes], dtype=np.int64)
        self._threshold = np.array([node[1] for node in nodes], dtype=np.float64)
        self._left = np.array([node[2] for node in nodes], dtype=np.int64)
        self._right = np.array([node[3] for node in nodes], dtype=np.int64)
        self._value = np.array([node[4] for node in nodes], dtype=np.float64)
        return self

    def predict(self, features):
        """Predict targets for ``features`` (N, D), D as fitted."""
        if self._feature is None:
            raise RuntimeError("tree has not been fitted")
        return self._predict_flattened(
            _check_predict_features(features, self._num_features))

    # ------------------------------------------------------------------
    # Flattened-tree growth and prediction
    # ------------------------------------------------------------------
    def _predict_flattened(self, features):
        """Batch traversal of the flattened tree: one vector step per level."""
        node = np.zeros(len(features), dtype=np.int64)
        for _ in range(self.max_depth):
            split_feature = self._feature[node]
            active = np.flatnonzero(split_feature >= 0)
            if len(active) == 0:
                break
            active_nodes = node[active]
            go_left = (features[active, split_feature[active]]
                       <= self._threshold[active_nodes])
            node[active] = np.where(
                go_left, self._left[active_nodes], self._right[active_nodes])
        return self._value[node]

    def _grow_vectorized(self, features, targets, rows, depth, nodes):
        """Grow depth-first (left before right, like the reference loop) and
        append flattened node rows.

        Returns the index of the node created for ``rows``.
        """
        node_targets = targets[rows]
        index = len(nodes)
        nodes.append([-1, np.nan, -1, -1, float(node_targets.mean())])
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return index
        if np.allclose(node_targets, node_targets[0]):
            return index

        split = self._best_split_vectorized(features[rows], node_targets)
        if split is None:
            return index
        feature, threshold = split
        go_left = features[rows, feature] <= threshold
        nodes[index][0] = feature
        nodes[index][1] = threshold
        nodes[index][2] = self._grow_vectorized(
            features, targets, rows[go_left], depth + 1, nodes)
        nodes[index][3] = self._grow_vectorized(
            features, targets, rows[~go_left], depth + 1, nodes)
        return index

    def _best_split_vectorized(self, features, targets):
        """Best (feature, threshold) via one cumulative-sum scan for all
        features at once, over the same deduplicated midpoint thresholds as
        the reference implementation.
        """
        num_samples, num_features = features.shape
        order = np.argsort(features, axis=0, kind="stable")
        sorted_columns = np.take_along_axis(features, order, axis=0)
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets, axis=0)
        cum_sq = np.cumsum(sorted_targets ** 2, axis=0)

        # Candidate thresholds per feature: midpoints of adjacent unique
        # values, subsampled to max_thresholds, deduplicated.  The left count
        # of the midpoint between unique values u_i and u_{i+1} is the run
        # boundary itself — except when the float midpoint rounds up onto
        # u_{i+1} exactly, where ``searchsorted(..., side="right")`` (the
        # reference semantics) also takes u_{i+1}'s ties to the left.
        feature_chunks = []
        left_count_chunks = []
        threshold_chunks = []
        for feature in range(num_features):
            column = sorted_columns[:, feature]
            boundaries = np.flatnonzero(column[1:] != column[:-1]) + 1
            if len(boundaries) == 0:
                continue
            midpoints = (column[boundaries - 1] + column[boundaries]) / 2.0
            next_boundaries = np.append(boundaries[1:], num_samples)
            left_counts_full = np.where(
                midpoints >= column[boundaries], next_boundaries, boundaries)
            if len(midpoints) > self.max_thresholds:
                keep = np.unique(np.linspace(
                    0, len(midpoints) - 1, self.max_thresholds).astype(int))
                midpoints = midpoints[keep]
                left_counts_full = left_counts_full[keep]
            if len(midpoints) > 1:
                # Dedupe float-rounded midpoint collisions (keep the first,
                # matching the reference's strict-improvement tie-break;
                # equal values carry equal left counts).
                first = np.empty(len(midpoints), dtype=bool)
                first[0] = True
                np.not_equal(midpoints[1:], midpoints[:-1], out=first[1:])
                midpoints = midpoints[first]
                left_counts_full = left_counts_full[first]
            feature_chunks.append(np.full(len(midpoints), feature, dtype=np.int64))
            left_count_chunks.append(left_counts_full)
            threshold_chunks.append(midpoints)
        if not feature_chunks:
            return None
        left_counts = np.concatenate(left_count_chunks)
        right_counts = num_samples - left_counts
        # Drop candidates that leave a side under min_samples_leaf before
        # dividing: a midpoint rounded onto the last unique value sends every
        # row left, and its empty right side would divide by zero.
        valid = ((left_counts >= self.min_samples_leaf)
                 & (right_counts >= self.min_samples_leaf))
        if not valid.any():
            return None
        split_features = np.concatenate(feature_chunks)[valid]
        thresholds = np.concatenate(threshold_chunks)[valid]
        left_counts = left_counts[valid]
        right_counts = right_counts[valid]

        # Scalar totals computed exactly as the reference does (np.sum's
        # pairwise order, not the sequential cumsum tail) so gains are
        # bit-identical and the same split wins every tie.
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        parent_impurity = total_sq - total_sum ** 2 / num_samples
        left_sum = cum_sum[left_counts - 1, split_features]
        left_sq = cum_sq[left_counts - 1, split_features]
        left_impurity = left_sq - left_sum ** 2 / left_counts
        right_impurity = ((total_sq - left_sq)
                          - (total_sum - left_sum) ** 2 / right_counts)
        gains = parent_impurity - left_impurity - right_impurity
        best = int(np.argmax(gains))
        if gains[best] <= _MIN_GAIN:
            return None
        return int(split_features[best]), float(thresholds[best])

    # ------------------------------------------------------------------
    # Reference implementation (the original Python loops; test oracle)
    # ------------------------------------------------------------------
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
                left_impurity = left_sq - left_sum ** 2 / left_count
                right_impurity = right_sq - right_sum ** 2 / right_count
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
