"""The weakly-supervised contrastive objective (paper §V, Eq. 8 and 10–12).

:func:`combined_wsc_loss` is the whole objective of one WSC train step as a
single autograd node whose only parent is the LSTM's per-step output
(``steps``, the STERs).  Its numpy forward takes the masked-mean TPRs
(Eq. 8), the global loss (negated Eq. 10: one ``(batch, batch)`` cosine
matrix and a masked row-wise log-sum-exp), the local loss (negated Eq. 11:
one gather of every sampled ``(query, edge)`` pair and a padded segment
log-sum-exp) and their λ mix (Eq. 12); its backward is written by hand.

Forward and backward repeat the arithmetic and the gradient-summation order
of the same objective composed from :class:`~repro.nn.Tensor` operations,
which ``tests/core/reference_wsc_graph.py`` keeps as the bit-exact oracle.
The order that matters: the TPRs' gradient sums the global terms, then the
positive and the negative query gathers; ``steps`` gains the positive edge
gather, then the masked mean, then the negative edge gather.  Only the signs
of zero may differ inside the backward, and those never reach a nonzero
value or the gradient that ``steps`` stores.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_real
from ..nn import Tensor
from ..nn import functional as F

__all__ = ["combined_wsc_loss"]

# Removes an entry from a row-wise log-sum-exp (see nn.functional docs).
_EXCLUDED_BIAS = F.EXCLUDED_BIAS
# Norm guard of the TPRs' normalisation (Eq. 10) and the cosines (Eq. 11).
_EPS = 1e-12


def _logsumexp(x):
    """Row-wise log-sum-exp of ``(N, L)`` ``x``, with the gradient of ``x``."""
    maxes = x.max(axis=-1, keepdims=True)
    shifted_exp = np.exp(x - maxes)
    total = shifted_exp.sum(axis=-1, keepdims=True)

    def backward(grad):
        return (grad[:, None] / total) * shifted_exp

    return (np.log(total) + maxes).reshape(len(x)), backward


def _global_term(tprs, contrast_sets, inv_tau):
    """Negated Eq. 10 and its backward to ``tprs``, or None when no query has
    both a positive and a negative."""
    size = len(tprs)
    positive_mask, negative_mask = contrast_sets.positives, contrast_sets.negatives
    valid = np.flatnonzero(positive_mask.any(axis=1) & negative_mask.any(axis=1))
    if not valid.size:
        return None

    squares = (tprs * tprs).sum(axis=-1, keepdims=True)
    norm = squares ** 0.5 + _EPS
    normalized = tprs / norm
    similarities = (normalized @ normalized.transpose()) * inv_tau
    # mean_{j in S_i} sim(i, j) as one weighted row-sum.
    positive_weights = positive_mask / np.maximum(positive_mask.sum(axis=1, keepdims=True), 1)
    positive_term = (similarities * positive_weights).sum(axis=1)
    negative_lse, lse_backward = _logsumexp(
        similarities + np.where(negative_mask, 0.0, _EXCLUDED_BIAS))
    objective = (positive_term - negative_lse)[valid]
    value = -(objective.sum() * (1.0 / objective.size))

    def backward(grad):
        grad_rows = np.zeros(size)
        grad_rows[valid] = -grad * (1.0 / objective.size)
        grad_sims = grad_rows[:, None] * positive_weights
        grad_sims += lse_backward(-grad_rows)
        grad_sims = grad_sims * inv_tau
        grad_normalized = grad_sims @ normalized
        grad_normalized += (normalized.T @ grad_sims).T
        grad_norm = (-grad_normalized * tprs / (norm ** 2)).sum(axis=1, keepdims=True)
        grad_tprs = grad_normalized / norm
        # d(tprs * tprs) reaches tprs once per factor.
        square_term = grad_norm * 0.5 * squares ** -0.5 * tprs
        grad_tprs += square_term
        grad_tprs += square_term
        return grad_tprs

    return value, backward


def _local_side(tprs, steps, squares, rows, cols, query, valid, inv_tau):
    """One side of Eq. 11's ratio: the per-query log-sum-exp of the scaled
    cosines between each valid query and its sampled edges, and its backward.

    ``squares`` holds the guarded squared norms of every TPR and every step.
    The backward returns the side's gradient terms of ``tprs`` and ``steps``.
    """
    keep = valid[query]
    rows, cols, query = rows[keep], cols[keep], query[keep]
    edges = steps[rows, cols]
    queries = tprs[query]
    dot = (queries * edges).sum(axis=-1)
    query_sq, edge_sq = squares[0][query], squares[1][rows, cols]
    query_norm, edge_norm = query_sq ** 0.5, edge_sq ** 0.5
    denominator = query_norm * edge_norm
    sims = (dot / denominator) * inv_tau

    # Each valid query's run of samples, padded into one matrix whose padding
    # the log-sum-exp excludes.
    lengths = np.bincount(query, minlength=len(valid))[valid]
    columns = np.arange(int(lengths.max()))
    inside = columns < lengths[:, None]
    pad_index = np.where(inside, (np.cumsum(lengths) - lengths)[:, None] + columns, 0)
    lse, lse_backward = _logsumexp(sims[pad_index] + np.where(inside, 0.0, _EXCLUDED_BIAS))

    def backward(grad):
        grad_sims = np.bincount(pad_index.ravel(), weights=lse_backward(grad).ravel(),
                                minlength=len(sims)) * inv_tau
        grad_dot = grad_sims / denominator
        grad_denominator = -grad_sims * dot / (denominator ** 2)
        grad_queries = grad_dot[:, None] * edges
        grad_edges = grad_dot[:, None] * queries
        # A squared norm reaches its operand once per factor of the square.
        query_term = (grad_denominator * edge_norm * 0.5 * query_sq ** -0.5)[:, None] * queries
        grad_queries += query_term
        grad_queries += query_term
        edge_term = (grad_denominator * query_norm * 0.5 * edge_sq ** -0.5)[:, None] * edges
        grad_edges += edge_term
        grad_edges += edge_term
        # Gather backwards: one bincount over the flat read positions each.
        batch, time, dim = steps.shape
        offsets = np.arange(dim)
        tprs_term = np.bincount((query[:, None] * dim + offsets).ravel(),
                                weights=grad_queries.ravel(), minlength=batch * dim)
        steps_term = np.bincount((((rows * time + cols) * dim)[:, None] + offsets).ravel(),
                                 weights=grad_edges.ravel(), minlength=steps.size)
        return tprs_term.reshape(batch, dim), steps_term.reshape(steps.shape)

    return lse, backward


def _local_term(tprs, steps, edge_sets, inv_tau):
    """Negated Eq. 11 and its backward, or None when no query has both a
    positive and a negative edge sample."""
    size = len(tprs)
    for query in (edge_sets.positive_query, edge_sets.negative_query):
        if np.any(query[1:] < query[:-1]):
            raise ValueError("edge samples must be grouped by query in ascending order")
    positive_counts = np.bincount(edge_sets.positive_query, minlength=size)
    valid = (positive_counts > 0) & (np.bincount(edge_sets.negative_query, minlength=size) > 0)
    if not valid.any():
        return None
    # A gathered row's squared norm has the bits of its source row's.
    squares = ((tprs * tprs).sum(axis=-1) + _EPS, (steps * steps).sum(axis=-1) + _EPS)
    positive_lse, positive_backward = _local_side(
        tprs, steps, squares, edge_sets.positive_rows, edge_sets.positive_cols,
        edge_sets.positive_query, valid, inv_tau)
    negative_lse, negative_backward = _local_side(
        tprs, steps, squares, edge_sets.negative_rows, edge_sets.negative_cols,
        edge_sets.negative_query, valid, inv_tau)
    weights = 1.0 / positive_counts[valid]
    per_query = (positive_lse - negative_lse) * weights
    value = -(per_query.sum() * (1.0 / per_query.size))

    def backward(grad):
        grad_lse = (-grad * (1.0 / per_query.size)) * weights
        return positive_backward(grad_lse), negative_backward(-grad_lse)

    return value, backward


def combined_wsc_loss(steps, mask, contrast_sets, edge_sets, lambda_balance=0.8,
                      temperature=0.1):
    """The negated, λ-weighted WSC objective (Eq. 12) as one autograd node.

    Parameters
    ----------
    steps:
        Tensor ``(batch, max_len, hidden_dim)``: the encoder's per-step
        outputs (STERs).  The TPRs are their masked mean (Eq. 8).
    mask:
        ``(batch, max_len)`` 0/1 array, 1 on a path's real steps.
    contrast_sets:
        :class:`~repro.core.sampling.ContrastSets`, the boolean ``(batch,
        batch)`` matrices of each query's positive and negative paths for the
        global loss.
    edge_sets:
        :class:`~repro.core.sampling.EdgeSampleSets`, each query's positive
        and negative edge samples for the local loss.
    lambda_balance:
        λ in ``[0, 1]``; 1 keeps only the global loss ("w/o Local"), 0 only
        the local loss ("w/o Global").
    temperature:
        Positive softmax temperature of the cosine similarities.

    Returns
    -------
    A scalar Tensor whose only parent is ``steps``.  A loss whose terms all
    lack a query with both a positive and a negative is a constant zero.
    """
    check_real("lambda_balance", lambda_balance, at_least=0, at_most=1)
    check_real("temperature", temperature, above=0)
    mask = np.asarray(mask, dtype=np.float64)
    if steps.ndim != 3 or mask.shape != steps.shape[:2]:
        raise ValueError(f"mask must have shape (batch, max_len) = {steps.shape[:2]}, "
                         f"got {mask.shape}")
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    tprs = (steps.data * mask[:, :, None]).sum(axis=1) / counts
    inv_tau = 1.0 / temperature
    global_term = _global_term(tprs, contrast_sets, inv_tau) if lambda_balance > 0.0 else None
    local_term = (_local_term(tprs, steps.data, edge_sets, inv_tau)
                  if lambda_balance < 1.0 else None)
    if global_term is None and local_term is None:
        return Tensor(np.zeros(()))

    mixed = 0.0 < lambda_balance < 1.0
    if mixed:
        global_value, local_value = (np.zeros(()) if term is None else term[0]
                                     for term in (global_term, local_term))
        value = global_value * lambda_balance + local_value * (1.0 - lambda_balance)
    else:
        value = (global_term or local_term)[0]

    def backward(grad):
        global_grad, local_grad = ((grad * lambda_balance, grad * (1.0 - lambda_balance))
                                   if mixed else (grad, grad))
        grad_tprs = None if global_term is None else global_term[1](global_grad)
        if local_term is not None:
            (positive_tprs, positive_steps), (negative_tprs, negative_steps) = \
                local_term[1](local_grad)
            if grad_tprs is None:
                grad_tprs = positive_tprs
            else:
                grad_tprs += positive_tprs
            grad_tprs += negative_tprs
        # The masked mean's backward, between the two edge gathers.
        grad_steps = (grad_tprs / counts)[:, None, :] * mask[:, :, None]
        if local_term is not None:
            grad_steps = positive_steps + grad_steps
            grad_steps += negative_steps
        steps._accumulate(grad_steps)

    return steps._make_result(np.asarray(value, dtype=np.float64), (steps,), backward,
                              "wsc_loss")
