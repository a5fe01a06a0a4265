"""CART-style regression trees, the weak learners for gradient boosting.

The paper maps frozen TPRs to task labels with scikit-learn's Gradient
Boosting Regressor / Classifier; scikit-learn is unavailable offline, so
:mod:`repro.downstream.gbm` rebuilds the estimator on top of these trees.

Split search runs no Python loop over features.  A :class:`_Presort` sorts
every feature column of the training matrix once, stably, so tied values
keep ascending row order.  Each node's per-feature order is its parent's
order filtered to the node's rows; a stable filter of a stable sort is the
stable sort of the subset, so no node sorts again.  A node's candidate
thresholds are the deduplicated midpoints of adjacent unique values, at
most ``max_thresholds`` per feature.  They come from one ``nonzero`` over
the sorted values, and one cumulative-sum scan scores them all.  A node's
order and candidates depend only on its row set, never on the targets, so
the presort keeps them per node: a booster grows every round's tree from
one presort, and each row set that recurs across its rounds is filtered
and scanned for candidates once per fit.

The fitted tree is flattened into ``(feature, threshold, left, right,
value)`` arrays, so ``predict`` is a batch traversal with no per-row
Python.  The per-threshold loop this scan replaced is the test oracle in
``tests/downstream/reference_tree.py``; the equivalence suites check that
the scan grows bit-identical trees.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_finite_array, check_integer

__all__ = ["DecisionTreeRegressor"]

_MIN_GAIN = 1e-12


def _check_features(features):
    """Training ``features`` as a finite, non-empty float64 (N, D) matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if len(features) == 0:
        raise ValueError("cannot fit on zero samples")
    return check_finite_array("features", features)


def _check_targets(targets, num_samples, name="targets"):
    """``targets`` as a finite float64 vector with one entry per sample."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or len(targets) != num_samples:
        raise ValueError(f"{name} must be a vector aligned with the "
                         f"{num_samples} feature rows, got shape {targets.shape}")
    return check_finite_array(name, targets)


def _check_predict_features(features, num_features):
    """``features`` as a finite float64 (N, ``num_features``) matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != num_features:
        raise ValueError(f"model was fitted on {num_features} features; predict "
                         f"needs an (N, {num_features}) matrix, got shape "
                         f"{features.shape}")
    return check_finite_array("features", features)


class _Presort:
    """Every feature column of one checked training matrix, sorted once.

    ``order[d]`` lists the row ids by ascending ``features[:, d]``, ties in
    ascending row order.  A booster builds one presort per fit and grows
    every round's tree from it; :meth:`node` keeps each node's row order
    and candidates, which depend only on the node's row set, so a row set
    that recurs in a later round is not filtered or scanned again.
    """

    def __init__(self, features):
        self.features = features
        self.columns = np.ascontiguousarray(features.T)
        self.order = np.argsort(self.columns, axis=1, kind="stable")
        self._nodes = {}

    def node(self, rows, parent_order, min_samples_leaf, max_thresholds):
        """``(order, candidates)`` of the node holding the ascending
        ``rows``, computed once per setting: its per-feature row order,
        filtered from ``parent_order``, and its :func:`_candidates`."""
        key = (rows.tobytes(), min_samples_leaf, max_thresholds)
        found = self._nodes.get(key)
        if found is None:
            order = parent_order
            if len(rows) < order.shape[1]:
                order = _restrict(order, rows, len(self.features))
            found = self._nodes[key] = (order, _candidates(
                self.columns, order, min_samples_leaf, max_thresholds))
        return found


def _restrict(order, rows, num_rows):
    """A parent's per-feature row ``order`` (D, n) kept to ``rows``.

    Filtering keeps each column's relative order, so the result is the
    stable sort of the subset without sorting again.
    """
    member = np.zeros(num_rows, dtype=bool)
    member[rows] = True
    keep = np.flatnonzero(member[order])
    return order.ravel()[keep].reshape(len(order), -1)


def _candidates(columns, order, min_samples_leaf, max_thresholds):
    """A node's candidate splits, from the feature ``columns`` (D, N) and
    the node's per-feature row ``order`` (D, n).

    Thresholds are the midpoints of adjacent unique values, subsampled to
    ``max_thresholds`` evenly spaced ones per feature and deduplicated, in
    ascending order feature by feature.  Returns ``(features, thresholds,
    left_counts)`` for the candidates that leave at least
    ``min_samples_leaf`` rows on each side, or ``None`` if there are none.
    """
    num_features, num_samples = order.shape
    # The node's sorted values, feature-major in one flat array.
    starts = np.arange(0, columns.size, columns.shape[1])
    flat = columns.ravel()[order + starts[:, None]].ravel()
    change = flat[1:] != flat[:-1]
    change[num_samples - 1::num_samples] = False  # pairs across two features
    # Flat index of the upper value of every run boundary, feature-major,
    # and where each feature's run boundaries start in that list.
    uppers = np.flatnonzero(change) + 1
    if len(uppers) == 0:
        return None
    offsets = np.searchsorted(uppers, np.arange(num_features + 1) * num_samples)
    counts = np.diff(offsets)
    wide = np.flatnonzero(counts > max_thresholds)
    if len(wide):
        # Evenly spaced ranks, one row per wide feature: ``linspace(0,
        # count - 1, max_thresholds)``'s own floats (step times ``arange``,
        # the exact endpoint last), or a lone rank 0 for one threshold.
        last = counts[wide] - 1
        ranks = (np.arange(max_thresholds)
                 * (last[:, None] / max(max_thresholds - 1, 1))).astype(np.int64)
        if max_thresholds > 1:
            ranks[:, -1] = last
        keep = np.repeat(counts <= max_thresholds, counts)
        keep[(offsets[wide, None] + ranks).ravel()] = True
        picked = np.flatnonzero(keep)
    else:
        picked = np.arange(len(uppers))
    upper_at = uppers[picked]
    split_features = upper_at // num_samples
    upper = flat[upper_at]
    thresholds = (flat[upper_at - 1] + upper) / 2.0
    left_counts = upper_at - split_features * num_samples
    # The left count of the midpoint between unique values u_i and u_{i+1}
    # is the run boundary itself, except when the float midpoint rounds up
    # onto u_{i+1} exactly: ``<=`` then also takes u_{i+1}'s ties to the
    # left, up to the feature's next boundary.
    rounded = np.flatnonzero(thresholds >= upper)
    if len(rounded):
        following = np.append(uppers, flat.size)[picked[rounded] + 1]
        left_counts[rounded] = np.where(
            following // num_samples == split_features[rounded],
            following - split_features[rounded] * num_samples, num_samples)
    # Dedupe float-rounded midpoint collisions within a feature, keeping the
    # first; equal values carry equal left counts.  Then drop candidates
    # that leave a side under min_samples_leaf: a midpoint rounded onto the
    # last unique value sends every row left, and its empty right side
    # would divide by zero.
    valid = np.ones(len(picked), dtype=bool)
    valid[1:] = ((thresholds[1:] != thresholds[:-1])
                 | (split_features[1:] != split_features[:-1]))
    valid &= ((left_counts >= min_samples_leaf)
              & (num_samples - left_counts >= min_samples_leaf))
    if not valid.any():
        return None
    return split_features[valid], thresholds[valid], left_counts[valid]


def _scan(candidates, order, targets, node_targets, total_sum):
    """Best ``(feature, threshold)`` among ``candidates``, or ``None``.

    One cumulative sum of the targets in every feature's sorted order gives
    each candidate's left-side sums; ``argmax`` keeps the first best, the
    loop oracle's strict-improvement tie-break.  ``total_sum`` is
    ``node_targets.sum()``.
    """
    split_features, thresholds, left_counts = candidates
    num_samples = len(node_targets)
    # Targets and their squares in every feature's order, summed along the
    # rows in one sequential cumsum.
    sums = np.empty((2,) + order.shape)
    np.take(targets, order, out=sums[0])
    np.square(sums[0], out=sums[1])
    np.cumsum(sums, axis=2, out=sums)
    right_counts = num_samples - left_counts
    # Scalar totals computed exactly as the oracle does (np.sum's pairwise
    # order, not the sequential cumsum tail) so gains are bit-identical and
    # the same split wins every tie.
    total_sq = (node_targets ** 2).sum()
    parent_impurity = total_sq - total_sum ** 2 / num_samples
    left_sum, left_sq = sums[:, split_features, left_counts - 1]
    left_impurity = left_sq - left_sum ** 2 / left_counts
    right_impurity = ((total_sq - left_sq)
                      - (total_sum - left_sum) ** 2 / right_counts)
    gains = parent_impurity - left_impurity - right_impurity
    best = int(np.argmax(gains))
    if gains[best] <= _MIN_GAIN:
        return None
    return int(split_features[best]), float(thresholds[best])


def _nearly_constant(values):
    """``np.allclose(values, values[0])`` at its default tolerances, as its
    own formula: the two decide alike on finite ``values``."""
    first = values[0]
    return bool((np.abs(values - first) <= 1e-8 + 1e-5 * abs(first)).all())


class DecisionTreeRegressor:
    """Least-squares regression tree with depth / leaf-size limits.

    Split finding uses the classic variance-reduction criterion evaluated on
    a bounded number of candidate thresholds per feature, which keeps fitting
    fast on the small embedding matrices used here.
    """

    def __init__(self, max_depth=3, min_samples_leaf=5, max_thresholds=16):
        self.max_depth = check_integer("max_depth", max_depth, low=1)
        self.min_samples_leaf = check_integer("min_samples_leaf", min_samples_leaf, low=1)
        self.max_thresholds = check_integer("max_thresholds", max_thresholds, low=1)
        # A booster sets this to its _Presort before each fit; fit uses it
        # only for the very matrix it sorted, then drops it.
        self._presort = None
        self._num_features = None
        # Flattened tree: feature is -1 at leaves.
        self._feature = None
        self._threshold = None
        self._left = None
        self._right = None
        self._value = None
        #: The fitted tree's prediction for each training row: the value of
        #: the leaf ``fit`` routed it to (a booster's next residuals).
        self._train_predictions = None

    # ------------------------------------------------------------------
    def fit(self, features, targets):
        """Fit the tree to ``features`` (N, D) and ``targets`` (N,), both
        finite."""
        presort, self._presort = self._presort, None
        if presort is None or presort.features is not features:
            presort = _Presort(_check_features(features))
        targets = _check_targets(targets, len(presort.features))
        nodes = []
        leaves = np.empty(len(targets), dtype=np.int64)
        self._grow(presort, targets, np.arange(len(targets)), presort.order,
                   depth=0, nodes=nodes, leaves=leaves)
        self._num_features = presort.features.shape[1]
        self._feature = np.array([node[0] for node in nodes], dtype=np.int64)
        self._threshold = np.array([node[1] for node in nodes], dtype=np.float64)
        self._left = np.array([node[2] for node in nodes], dtype=np.int64)
        self._right = np.array([node[3] for node in nodes], dtype=np.int64)
        self._value = np.array([node[4] for node in nodes], dtype=np.float64)
        self._train_predictions = self._value[leaves]
        return self

    def predict(self, features):
        """Predict targets for ``features`` (N, D), D as fitted."""
        if self._feature is None:
            raise RuntimeError("tree has not been fitted")
        features = _check_predict_features(features, self._num_features)
        # Batch traversal of the flattened tree: one vector step per level.
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

    # ------------------------------------------------------------------
    def _grow(self, presort, targets, rows, order, depth, nodes, leaves):
        """Grow depth-first (left before right, like the loop oracle) and
        append flattened node rows; returns the index of ``rows``' node and
        sets ``leaves[rows]`` to the leaf each row ends in.

        ``rows`` is ascending.  ``order`` is the parent's per-feature row
        order, or the presort's at the root; the presort filters it to the
        node's rows only if the node scans for a split.
        """
        node_targets = targets[rows]
        total_sum = node_targets.sum()
        index = len(nodes)
        # ``np.mean``'s own bits: the same sum over the same count.
        nodes.append([-1, np.nan, -1, -1, float(total_sum / len(rows))])
        leaves[rows] = index  # the children overwrite it if the node splits
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return index
        if _nearly_constant(node_targets):
            return index

        order, candidates = presort.node(rows, order, self.min_samples_leaf,
                                         self.max_thresholds)
        if candidates is None:
            return index
        split = _scan(candidates, order, targets, node_targets, total_sum)
        if split is None:
            return index
        feature, threshold = split
        go_left = presort.columns[feature, rows] <= threshold
        nodes[index][:4] = (
            feature, threshold,
            self._grow(presort, targets, rows[go_left], order, depth + 1, nodes, leaves),
            self._grow(presort, targets, rows[~go_left], order, depth + 1, nodes, leaves))
        return index
