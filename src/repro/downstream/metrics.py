"""Evaluation metrics for the three downstream tasks (paper Eq. 14–16).

Regression: MAE, MARE, MAPE.  Ranking: Kendall's τ and Spearman's ρ computed
per query group and averaged.  Classification: accuracy and hit rate.

The rank correlations are vectorized: ``kendall_tau`` sums the pair signs
over all ``n(n−1)/2`` pairs in one array pass (candidate sets hold a handful
of paths, so the quadratic pair count is tiny), ``_ranks`` averages ties with
one ``np.unique(return_inverse)`` + ``bincount`` pass, and
``grouped_rank_correlation`` sorts by group once instead of building a
boolean mask per group.  The original loop implementations are the
equivalence tests' oracles, in ``tests/downstream/reference_metrics.py``.

Every metric rejects NaN and ±inf in ``truth`` or ``prediction`` with a
``ValueError``: a NaN has no rank (it used to count as a tie).

``spearman_rho`` is additionally *tie-correct*: it computes the Pearson
correlation of the average ranks.  The historical ``1 − 6Σd²/(n(n²−1))``
shortcut (the tests' no-ties oracle) is only valid without ties — e.g. for
``truth=[1,1,2,3]``, ``pred=[1,2,2,3]`` it returns 0.85 where
Pearson-on-ranks (and :func:`scipy.stats.spearmanr`) give 5/6 ≈ 0.8333.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_finite_array

__all__ = [
    "mae",
    "mare",
    "mape",
    "kendall_tau",
    "spearman_rho",
    "grouped_rank_correlation",
    "accuracy",
    "hit_rate",
]


def _validate(truth, prediction):
    truth = np.asarray(truth, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    if truth.shape != prediction.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {prediction.shape}")
    if truth.size == 0:
        raise ValueError("metrics need at least one example")
    check_finite_array("truth", truth)
    check_finite_array("prediction", prediction)
    return truth, prediction


def _validate_labels(truth, prediction):
    truth, prediction = _validate(truth, prediction)
    return truth.astype(np.int64), prediction.astype(np.int64)


def mae(truth, prediction):
    """Mean absolute error."""
    truth, prediction = _validate(truth, prediction)
    return float(np.mean(np.abs(truth - prediction)))


def mare(truth, prediction):
    """Mean absolute relative error: sum |err| / sum |truth|."""
    truth, prediction = _validate(truth, prediction)
    denominator = np.sum(np.abs(truth))
    if denominator == 0:
        raise ValueError("MARE undefined when all ground-truth values are zero")
    return float(np.sum(np.abs(truth - prediction)) / denominator)


def mape(truth, prediction, eps=1e-9):
    """Mean absolute percentage error (in percent)."""
    truth, prediction = _validate(truth, prediction)
    return float(np.mean(np.abs((truth - prediction) / np.maximum(np.abs(truth), eps))) * 100.0)


# ----------------------------------------------------------------------
# Rank correlations
# ----------------------------------------------------------------------
def kendall_tau(truth, prediction):
    """Kendall rank correlation coefficient (Eq. 15, concordant-discordant form).

    τ-a: the sum over all pairs ``i < j`` of
    ``sign(truth_i − truth_j) · sign(prediction_i − prediction_j)``, an exact
    integer ``C − D``, over ``n(n−1)/2``.  Tied pairs count zero.
    """
    truth, prediction = _validate(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    first, second = np.triu_indices(n, 1)
    # Signs by comparison: a difference of two huge magnitudes could overflow.
    truth_sign, prediction_sign = (
        (v[first] > v[second]).astype(np.int64) - (v[first] < v[second])
        for v in (truth, prediction))
    return int((truth_sign * prediction_sign).sum()) / (n * (n - 1) // 2)


def _ranks(values):
    """Average ranks (ties share the mean rank), 1-based."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    rank_sums = np.bincount(inverse, weights=ranks)
    return (rank_sums / counts)[inverse]


def spearman_rho(truth, prediction):
    """Spearman rank correlation: Pearson correlation of the average ranks.

    Tie-correct, unlike the ``1 − 6Σd²/(n(n²−1))`` shortcut, which assumes
    all ranks are distinct.
    Returns 0.0 when either input is constant (the correlation is undefined
    there; scipy returns NaN).
    """
    truth, prediction = _validate(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    rank_truth = _ranks(truth)
    rank_prediction = _ranks(prediction)
    centered_truth = rank_truth - rank_truth.mean()
    centered_prediction = rank_prediction - rank_prediction.mean()
    denominator = np.sqrt(
        np.sum(centered_truth ** 2) * np.sum(centered_prediction ** 2))
    if denominator == 0.0:
        return 0.0
    return float(np.sum(centered_truth * centered_prediction) / denominator)


_STATISTICS = {"kendall": kendall_tau, "spearman": spearman_rho}


def grouped_rank_correlation(truth, prediction, groups, statistic="kendall"):
    """Average a rank correlation over query groups (candidate sets).

    Groups with fewer than two candidates are skipped, matching how the path
    ranking evaluation works: correlations only make sense within the
    candidate set of one trip.  The arrays are sorted by group once and the
    correlation runs on contiguous slices — no per-group boolean mask.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of "
                         f"{sorted(_STATISTICS)}")
    truth = np.asarray(truth, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    groups = np.asarray(groups)
    if not (truth.shape == prediction.shape == groups.shape):
        raise ValueError(f"shape mismatch: {truth.shape} vs {prediction.shape} "
                         f"vs {groups.shape}")
    # The whole arrays, so a NaN in a skipped singleton group is caught too.
    # A NaN group id would split into singletons, since NaN != NaN; other
    # group ids than floats are finite.
    check_finite_array("truth", truth)
    check_finite_array("prediction", prediction)
    if groups.dtype.kind in "fc":
        check_finite_array("groups", groups)
    func = _STATISTICS[statistic]

    order = np.argsort(groups, kind="stable")
    sorted_truth = truth[order]
    sorted_prediction = prediction[order]
    sorted_groups = groups[order]
    boundaries = np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sorted_groups)]))

    values = []
    for start, stop in zip(starts, stops):
        if stop - start < 2:
            continue
        values.append(func(sorted_truth[start:stop], sorted_prediction[start:stop]))
    return float(np.mean(values)) if values else 0.0


def accuracy(truth, prediction):
    """Classification accuracy (Eq. 16)."""
    truth, prediction = _validate_labels(truth, prediction)
    return float(np.mean(truth == prediction))


def hit_rate(truth, prediction):
    """Hit rate = recall of the positive class: TP / (TP + FN) (Eq. 16)."""
    truth, prediction = _validate_labels(truth, prediction)
    positives = truth == 1
    if positives.sum() == 0:
        return 0.0
    return float(np.mean(prediction[positives] == 1))
