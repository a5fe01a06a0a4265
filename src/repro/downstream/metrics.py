"""Evaluation metrics for the three downstream tasks (paper Eq. 14–16).

Regression: MAE, MARE, MAPE.  Ranking: Kendall's τ and Spearman's ρ computed
per query group and averaged.  Classification: accuracy and hit rate.

The rank correlations are vectorized: ``kendall_tau`` counts discordant
pairs with merge-sort inversion counting (Knight's O(n log n) algorithm
instead of the O(n²) pair loop), ``_ranks`` averages ties with one
``np.unique(return_inverse)`` + ``bincount`` pass, and
``grouped_rank_correlation`` sorts by group once instead of building a
boolean mask per group.  The original loop implementations are the
equivalence tests' oracles, in ``tests/downstream/reference_metrics.py``.

``spearman_rho`` is additionally *tie-correct*: it computes the Pearson
correlation of the average ranks.  The historical ``1 − 6Σd²/(n(n²−1))``
shortcut (the tests' no-ties oracle) is only valid without ties — e.g. for
``truth=[1,1,2,3]``, ``pred=[1,2,2,3]`` it returns 0.85 where
Pearson-on-ranks (and :func:`scipy.stats.spearmanr`) give 5/6 ≈ 0.8333.
"""

from __future__ import annotations

import numpy as np

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
    return truth, prediction


def _validate_labels(truth, prediction):
    truth = np.asarray(truth)
    prediction = np.asarray(prediction)
    if truth.shape != prediction.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {prediction.shape}")
    if truth.size == 0:
        raise ValueError("metrics need at least one example")
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
def _count_inversions(values, leaf_size=32):
    """Number of index pairs ``i < j`` with ``values[i] > values[j]`` (strict).

    Bottom-up merge counting: leaves are handled with one vectorized pairwise
    comparison, then sorted runs are merged pairwise, counting cross-run
    inversions with one ``searchsorted`` per merge.  O(n log n) comparisons
    with O(n / leaf_size) Python-level iterations.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2:
        return 0
    # Pad to a multiple of the leaf size with +inf: a padded element never
    # precedes a real one and never exceeds itself, so it adds no inversions.
    padded_length = -(-n // leaf_size) * leaf_size
    padded = np.full(padded_length, np.inf)
    padded[:n] = values
    blocks = padded.reshape(-1, leaf_size)

    upper_i, upper_j = np.triu_indices(leaf_size, k=1)
    inversions = int(np.count_nonzero(blocks[:, upper_i] > blocks[:, upper_j]))

    runs = list(np.sort(blocks, axis=1))
    while len(runs) > 1:
        merged_runs = []
        for index in range(0, len(runs) - 1, 2):
            left, right = runs[index], runs[index + 1]
            inversions += int(
                np.sum(len(left) - np.searchsorted(left, right, side="right")))
            merged_runs.append(np.sort(np.concatenate([left, right])))
        if len(runs) % 2:
            merged_runs.append(runs[-1])
        runs = merged_runs
    return inversions


def _sorted_tie_term(sorted_values):
    """``Σ t(t-1)/2`` over runs of equal values in an already-sorted array."""
    n = len(sorted_values)
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    counts = np.diff(np.concatenate(([0], boundaries, [n])))
    return int(np.sum(counts * (counts - 1) // 2))


def kendall_tau(truth, prediction):
    """Kendall rank correlation coefficient (Eq. 15, concordant-discordant form).

    Knight's algorithm: sort lexicographically by ``(truth, prediction)``,
    count discordant pairs as merge-sort inversions of the prediction order,
    and correct for ties with the pair-count identity
    ``C − D = n0 − n1 − n2 + n3 − 2·D``.  Exactly equal to the O(n²) pair
    loop, including the τ-a denominator ``n(n−1)/2``.
    """
    truth, prediction = _validate(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    order = np.lexsort((prediction, truth))
    sorted_truth = truth[order]
    sorted_prediction = prediction[order]

    total_pairs = n * (n - 1) // 2
    truth_ties = _sorted_tie_term(sorted_truth)
    prediction_ties = _sorted_tie_term(np.sort(prediction))
    joint_breaks = np.flatnonzero(
        (sorted_truth[1:] != sorted_truth[:-1])
        | (sorted_prediction[1:] != sorted_prediction[:-1])) + 1
    joint_counts = np.diff(np.concatenate(([0], joint_breaks, [n])))
    joint_ties = int(np.sum(joint_counts * (joint_counts - 1) // 2))

    # With truth ascending and prediction ascending inside truth-tie groups,
    # every prediction inversion is exactly one discordant pair.
    discordant = _count_inversions(sorted_prediction)
    concordant_minus_discordant = (
        total_pairs - truth_ties - prediction_ties + joint_ties - 2 * discordant)
    return float(concordant_minus_discordant / total_pairs)


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
