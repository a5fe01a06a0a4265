"""Weakly-supervised contrastive losses (paper §V).

Both functions return losses to *minimise*; they are the negations of the
paper's objectives (Eq. 10, Eq. 11) so they can be fed directly to an
optimiser.  :func:`combined_wsc_loss` implements Eq. 12's λ-weighted sum.

The public functions are the vectorized training fast path: one
``(batch, batch)`` cosine-similarity matrix plus boolean positive/negative
masks, with the per-query log-sum-exp done as a masked row-wise reduction —
no Python loop over queries.  The original per-query loop implementations
are retained as :func:`_reference_global_wsc_loss` /
:func:`_reference_local_wsc_loss`; they are the oracles for the equivalence
test suite and the loop-reference rows of the training-throughput benchmark.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F

__all__ = ["global_wsc_loss", "local_wsc_loss", "combined_wsc_loss"]

# Removes an entry from a row-wise log-sum-exp (see nn.functional docs).
_EXCLUDED_BIAS = F.EXCLUDED_BIAS


def _normalized(tprs, eps=1e-12):
    norm = (tprs * tprs).sum(axis=-1, keepdims=True) ** 0.5
    return tprs / (norm + eps)


def _zero_loss():
    return nn.Tensor(np.zeros(()), requires_grad=False)


def global_wsc_loss(tprs, contrast_sets, temperature=0.1):
    """Global weakly-supervised contrastive loss (negated Eq. 10), matrix form.

    Parameters
    ----------
    tprs:
        Tensor of shape ``(batch, hidden_dim)``.
    contrast_sets:
        :class:`~repro.core.sampling.ContrastSets` for the batch.
    temperature:
        Softmax temperature applied to the cosine similarities.

    Returns
    -------
    A scalar Tensor.  Returns a zero tensor when no query has both a
    positive and a negative sample (degenerate batch).
    """
    size = len(contrast_sets.positives)
    positive_mask = np.zeros((size, size), dtype=bool)
    negative_mask = np.zeros((size, size), dtype=bool)
    valid = []
    for i in range(size):
        positives = contrast_sets.positives[i]
        negatives = contrast_sets.negatives[i]
        if len(positives) == 0 or len(negatives) == 0:
            continue
        positive_mask[i, positives] = True
        negative_mask[i, negatives] = True
        valid.append(i)
    if not valid:
        return _zero_loss()
    valid = np.asarray(valid, dtype=np.int64)

    normalized = _normalized(tprs)
    similarities = (normalized @ normalized.transpose()) * (1.0 / temperature)

    # mean_{j in S_i} sim(i, j): one weighted row-sum instead of a gather per
    # query.  Rows without positives have all-zero weights (and are dropped
    # by the ``valid`` selection below).
    counts = np.maximum(positive_mask.sum(axis=1, keepdims=True), 1)
    positive_weights = positive_mask / counts
    positive_term = (similarities * nn.Tensor(positive_weights)).sum(axis=1)

    # log sum_{k in N_i} exp(sim(i, k)): masked row-wise log-sum-exp.
    negative_bias = np.where(negative_mask, 0.0, _EXCLUDED_BIAS)
    masked = similarities + nn.Tensor(negative_bias)
    negative_lse = F.logsumexp(masked, axis=-1)

    objective = (positive_term - negative_lse)[valid]
    return -objective.mean()


def _reference_global_wsc_loss(tprs, contrast_sets, temperature=0.1):
    """Per-query loop implementation of Eq. 10 (equivalence oracle)."""
    normalized = _normalized(tprs)
    similarities = (normalized @ normalized.transpose()) * (1.0 / temperature)

    terms = []
    for i in range(len(contrast_sets.positives)):
        positives = contrast_sets.positives[i]
        negatives = contrast_sets.negatives[i]
        if len(positives) == 0 or len(negatives) == 0:
            continue
        positive_sims = similarities[i, positives]
        negative_sims = similarities[i, negatives]
        denominator = F.logsumexp(negative_sims, axis=-1)
        # (1/|S_i|) * sum_j [ sim(i, j) - log sum_k exp(sim(i, k)) ]
        objective = (positive_sims - denominator).mean()
        terms.append(objective)

    if not terms:
        return _zero_loss()
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return -(total * (1.0 / len(terms)))


def _padded_logsumexp(flat_sims, segment_lengths):
    """Row-wise log-sum-exp over a flat Tensor split into ragged segments.

    ``flat_sims`` is a 1-D Tensor of concatenated per-query similarity
    values; ``segment_lengths`` gives each query's run length.  The segments
    are gathered into one padded ``(num_queries, max_len)`` matrix (padding
    biased by :data:`_EXCLUDED_BIAS`, so it contributes exactly zero) and
    reduced with a single log-sum-exp — no Python loop over queries.
    """
    lengths = np.asarray(segment_lengths, dtype=np.int64)
    num_queries = len(lengths)
    max_len = int(lengths.max())
    pad_index = np.zeros((num_queries, max_len), dtype=np.int64)
    pad_bias = np.full((num_queries, max_len), _EXCLUDED_BIAS)
    offset = 0
    for row, length in enumerate(lengths):
        pad_index[row, :length] = np.arange(offset, offset + length)
        pad_bias[row, :length] = 0.0
        offset += int(length)
    padded = flat_sims[pad_index] + nn.Tensor(pad_bias)
    return F.logsumexp(padded, axis=-1)


def local_wsc_loss(tprs, edge_representations, edge_sets, temperature=0.1):
    """Local weakly-supervised contrastive loss (negated Eq. 11), matrix form.

    Parameters
    ----------
    tprs:
        Tensor ``(batch, hidden_dim)`` — the query TPRs.
    edge_representations:
        Tensor ``(batch, max_len, hidden_dim)`` — the STERs.
    edge_sets:
        :class:`~repro.core.sampling.EdgeSampleSets` giving the sampled
        positive/negative edge positions per query.
    """
    batch = tprs.shape[0]
    valid = [i for i in range(batch)
             if len(edge_sets.positive_rows[i]) > 0
             and len(edge_sets.negative_rows[i]) > 0]
    if not valid:
        return _zero_loss()

    def gather_sims(rows_per_query, cols_per_query):
        rows = np.concatenate([rows_per_query[i] for i in valid])
        cols = np.concatenate([cols_per_query[i] for i in valid])
        query_index = np.concatenate(
            [np.full(len(rows_per_query[i]), i, dtype=np.int64) for i in valid])
        # One gather for every (query, edge) pair in the batch.
        edges = edge_representations[rows, cols]
        queries = tprs[query_index]
        sims = F.cosine_similarity(queries, edges) * (1.0 / temperature)
        lengths = [len(rows_per_query[i]) for i in valid]
        return _padded_logsumexp(sims, lengths)

    positive_lse = gather_sims(edge_sets.positive_rows, edge_sets.positive_cols)
    negative_lse = gather_sims(edge_sets.negative_rows, edge_sets.negative_cols)

    weights = nn.Tensor([1.0 / len(edge_sets.positive_rows[i]) for i in valid])
    per_query = (positive_lse - negative_lse) * weights
    return -(per_query.sum() * (1.0 / len(valid)))


def _reference_local_wsc_loss(tprs, edge_representations, edge_sets, temperature=0.1):
    """Per-query loop implementation of Eq. 11 (equivalence oracle)."""
    terms = []
    batch = tprs.shape[0]
    for i in range(batch):
        pos_rows = edge_sets.positive_rows[i]
        pos_cols = edge_sets.positive_cols[i]
        neg_rows = edge_sets.negative_rows[i]
        neg_cols = edge_sets.negative_cols[i]
        if len(pos_rows) == 0 or len(neg_rows) == 0:
            continue
        query = tprs[i:i + 1, :]                               # (1, d_h)
        positive_edges = edge_representations[pos_rows, pos_cols]  # (P, d_h)
        negative_edges = edge_representations[neg_rows, neg_cols]  # (N, d_h)

        positive_sims = F.cosine_similarity(query, positive_edges) * (1.0 / temperature)
        negative_sims = F.cosine_similarity(query, negative_edges) * (1.0 / temperature)

        objective = (
            F.logsumexp(positive_sims, axis=-1) - F.logsumexp(negative_sims, axis=-1)
        ) * (1.0 / len(pos_rows))
        terms.append(objective)

    if not terms:
        return _zero_loss()
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return -(total * (1.0 / len(terms)))


def combined_wsc_loss(tprs, edge_representations, contrast_sets, edge_sets,
                      lambda_balance=0.8, temperature=0.1,
                      global_loss=None, local_loss=None):
    """λ-weighted combination of the global and local losses (negated Eq. 12).

    ``lambda_balance = 1`` uses only the global loss ("w/o Local" ablation);
    ``lambda_balance = 0`` uses only the local loss ("w/o Global").
    ``global_loss`` / ``local_loss`` override the implementations (used by
    :func:`_reference_combined_wsc_loss`).
    """
    global_loss = global_loss or global_wsc_loss
    local_loss = local_loss or local_wsc_loss
    if lambda_balance >= 1.0:
        return global_loss(tprs, contrast_sets, temperature=temperature)
    if lambda_balance <= 0.0:
        return local_loss(tprs, edge_representations, edge_sets, temperature=temperature)
    global_term = global_loss(tprs, contrast_sets, temperature=temperature)
    local_term = local_loss(tprs, edge_representations, edge_sets, temperature=temperature)
    return global_term * lambda_balance + local_term * (1.0 - lambda_balance)


def _reference_combined_wsc_loss(tprs, edge_representations, contrast_sets,
                                 edge_sets, lambda_balance=0.8, temperature=0.1):
    """Eq. 12 built from the per-query loop losses (benchmark baseline)."""
    return combined_wsc_loss(
        tprs, edge_representations, contrast_sets, edge_sets,
        lambda_balance=lambda_balance, temperature=temperature,
        global_loss=_reference_global_wsc_loss,
        local_loss=_reference_local_wsc_loss,
    )
