"""The loop oracles for :mod:`repro.downstream.metrics`.

Each function is the original Python-loop implementation of a vectorized
metric; the equivalence suites require the engine to agree with it.
"""

from __future__ import annotations

import numpy as np

from repro.downstream import kendall_tau, spearman_rho

_STATISTICS = {"kendall": kendall_tau, "spearman": spearman_rho}


def _as_floats(truth, prediction):
    return (np.asarray(truth, dtype=np.float64),
            np.asarray(prediction, dtype=np.float64))


def _reference_kendall_tau(truth, prediction):
    """O(n²) pair-loop oracle for :func:`~repro.downstream.metrics.kendall_tau`."""
    truth, prediction = _as_floats(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = np.sign(truth[i] - truth[j])
            b = np.sign(prediction[i] - prediction[j])
            product = a * b
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    return float((concordant - discordant) / (n * (n - 1) / 2.0))


def _reference_ranks(values):
    """Per-tie rescan oracle for :func:`~repro.downstream.metrics._ranks`."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    for value in np.unique(values):
        mask = values == value
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    return ranks


def _reference_spearman_rho(truth, prediction):
    """No-ties rank-difference shortcut, the pre-fix behaviour.

    Only agrees with :func:`~repro.downstream.metrics.spearman_rho` when
    both inputs are tie-free; the equivalence oracle for that regime.
    """
    truth, prediction = _as_floats(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    d = _reference_ranks(truth) - _reference_ranks(prediction)
    return float(1.0 - 6.0 * np.sum(d ** 2) / (n * (n ** 2 - 1)))


def _reference_grouped_rank_correlation(truth, prediction, groups,
                                        statistic="kendall"):
    """Mask-per-group oracle for
    :func:`~repro.downstream.metrics.grouped_rank_correlation`.

    Composes the *vectorized* per-group statistics so it isolates the
    grouping strategy; pair it with the ``_reference_*`` statistics directly
    to reproduce the historical engine end to end.
    """
    truth, prediction = _as_floats(truth, prediction)
    groups = np.asarray(groups)
    func = _STATISTICS[statistic]
    values = []
    for group in np.unique(groups):
        mask = groups == group
        if mask.sum() < 2:
            continue
        values.append(func(truth[mask], prediction[mask]))
    return float(np.mean(values)) if values else 0.0
