"""The WSC objective composed from :class:`repro.nn.Tensor` operations.

This is the bit-exact oracle of :func:`repro.core.losses.combined_wsc_loss`,
the objective's one autograd node: ``combined_wsc_loss`` here takes the same
arguments and must give the same loss bytes and the same gradient of
``steps``.  ``global_wsc_loss`` and ``local_wsc_loss`` are the matrix-form
global (negated Eq. 10) and local (negated Eq. 11) losses over given TPRs;
``test_fast_path_equivalence.py`` holds them to the per-query loop oracles
of ``reference_losses``.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F

# Removes an entry from a row-wise log-sum-exp (see nn.functional docs).
_EXCLUDED_BIAS = F.EXCLUDED_BIAS


def _normalized(tprs, eps=1e-12):
    norm = (tprs * tprs).sum(axis=-1, keepdims=True) ** 0.5
    return tprs / (norm + eps)


def _zero_loss():
    return nn.Tensor(np.zeros(()), requires_grad=False)


def global_wsc_loss(tprs, contrast_sets, temperature=0.1):
    """Global loss over ``(batch, hidden_dim)`` TPRs; a zero constant when no
    query has both a positive and a negative."""
    size = len(contrast_sets.positives)
    positive_mask = np.zeros((size, size), dtype=bool)
    negative_mask = np.zeros((size, size), dtype=bool)
    valid = []
    for i in range(size):
        positives = np.flatnonzero(contrast_sets.positives[i])
        negatives = np.flatnonzero(contrast_sets.negatives[i])
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

    # mean_{j in S_i} sim(i, j): one weighted row-sum.
    counts = np.maximum(positive_mask.sum(axis=1, keepdims=True), 1)
    positive_weights = positive_mask / counts
    positive_term = (similarities * nn.Tensor(positive_weights)).sum(axis=1)

    # log sum_{k in N_i} exp(sim(i, k)): masked row-wise log-sum-exp.
    negative_bias = np.where(negative_mask, 0.0, _EXCLUDED_BIAS)
    masked = similarities + nn.Tensor(negative_bias)
    negative_lse = F.logsumexp(masked, axis=-1)

    objective = (positive_term - negative_lse)[valid]
    return -objective.mean()


def _padded_logsumexp(flat_sims, segment_lengths):
    """Row-wise log-sum-exp over a flat Tensor split into ragged segments,
    gathered into one padded matrix whose padding is excluded."""
    lengths = np.asarray(segment_lengths, dtype=np.int64)
    columns = np.arange(int(lengths.max()))
    inside = columns < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    pad_index = np.where(inside, starts[:, None] + columns, 0)
    pad_bias = np.where(inside, 0.0, _EXCLUDED_BIAS)
    padded = flat_sims[pad_index] + nn.Tensor(pad_bias)
    return F.logsumexp(padded, axis=-1)


def local_wsc_loss(tprs, edge_representations, edge_sets, temperature=0.1):
    """Local loss of ``(batch, hidden_dim)`` query TPRs against the sampled
    rows of ``(batch, max_len, hidden_dim)`` STERs; a zero constant when no
    query has both a positive and a negative edge sample."""
    batch = tprs.shape[0]
    positive_counts = np.bincount(edge_sets.positive_query, minlength=batch)
    negative_counts = np.bincount(edge_sets.negative_query, minlength=batch)
    valid = [i for i in range(batch) if positive_counts[i] > 0 and negative_counts[i] > 0]
    if not valid:
        return _zero_loss()

    def gather_sims(rows, cols, query):
        picks = [np.flatnonzero(query == i) for i in valid]
        pick = np.concatenate(picks)
        # One gather for every (query, edge) pair in the batch.
        edges = edge_representations[rows[pick], cols[pick]]
        queries = tprs[query[pick]]
        sims = F.cosine_similarity(queries, edges) * (1.0 / temperature)
        return _padded_logsumexp(sims, [len(p) for p in picks])

    positive_lse = gather_sims(edge_sets.positive_rows, edge_sets.positive_cols,
                               edge_sets.positive_query)
    negative_lse = gather_sims(edge_sets.negative_rows, edge_sets.negative_cols,
                               edge_sets.negative_query)

    weights = nn.Tensor([1.0 / positive_counts[i] for i in valid])
    per_query = (positive_lse - negative_lse) * weights
    return -(per_query.sum() * (1.0 / len(valid)))


def combined_wsc_loss(steps, mask, contrast_sets, edge_sets, lambda_balance=0.8,
                      temperature=0.1):
    """Eq. 12 over the masked-mean TPRs of ``steps``, with the node's arguments."""
    tprs = F.masked_mean(steps, np.asarray(mask, dtype=np.float64))
    if lambda_balance >= 1.0:
        return global_wsc_loss(tprs, contrast_sets, temperature=temperature)
    if lambda_balance <= 0.0:
        return local_wsc_loss(tprs, steps, edge_sets, temperature=temperature)
    global_term = global_wsc_loss(tprs, contrast_sets, temperature=temperature)
    local_term = local_wsc_loss(tprs, steps, edge_sets, temperature=temperature)
    return global_term * lambda_balance + local_term * (1.0 - lambda_balance)
