"""The per-query loop oracles for :mod:`repro.core.losses`.

Each function is the original Python-loop form of a matrix-form WSC loss
(``reference_wsc_graph``); ``test_fast_path_equivalence.py`` requires the
two, and a train step through the objective node, to agree in value and
gradient.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F


def _normalized(tprs, eps=1e-12):
    norm = (tprs * tprs).sum(axis=-1, keepdims=True) ** 0.5
    return tprs / (norm + eps)


def _mean_of_terms(terms):
    if not terms:
        return nn.Tensor(np.zeros(()), requires_grad=False)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return -(total * (1.0 / len(terms)))


def _reference_global_wsc_loss(tprs, contrast_sets, temperature=0.1):
    """Per-query loop implementation of Eq. 10."""
    normalized = _normalized(tprs)
    similarities = (normalized @ normalized.transpose()) * (1.0 / temperature)

    terms = []
    for i in range(len(contrast_sets.positives)):
        positives = np.flatnonzero(contrast_sets.positives[i])
        negatives = np.flatnonzero(contrast_sets.negatives[i])
        if len(positives) == 0 or len(negatives) == 0:
            continue
        positive_sims = similarities[i, positives]
        negative_sims = similarities[i, negatives]
        denominator = F.logsumexp(negative_sims, axis=-1)
        # (1/|S_i|) * sum_j [ sim(i, j) - log sum_k exp(sim(i, k)) ]
        terms.append((positive_sims - denominator).mean())
    return _mean_of_terms(terms)


def _reference_local_wsc_loss(tprs, edge_representations, edge_sets, temperature=0.1):
    """Per-query loop implementation of Eq. 11."""
    terms = []
    for i in range(tprs.shape[0]):
        pos = edge_sets.positive_query == i
        neg = edge_sets.negative_query == i
        pos_rows, pos_cols = edge_sets.positive_rows[pos], edge_sets.positive_cols[pos]
        neg_rows, neg_cols = edge_sets.negative_rows[neg], edge_sets.negative_cols[neg]
        if len(pos_rows) == 0 or len(neg_rows) == 0:
            continue
        query = tprs[i:i + 1, :]                                    # (1, d_h)
        positive_edges = edge_representations[pos_rows, pos_cols]  # (P, d_h)
        negative_edges = edge_representations[neg_rows, neg_cols]  # (N, d_h)

        positive_sims = F.cosine_similarity(query, positive_edges) * (1.0 / temperature)
        negative_sims = F.cosine_similarity(query, negative_edges) * (1.0 / temperature)

        terms.append((
            F.logsumexp(positive_sims, axis=-1) - F.logsumexp(negative_sims, axis=-1)
        ) * (1.0 / len(pos_rows)))
    return _mean_of_terms(terms)


def _reference_combined_wsc_loss(steps, mask, contrast_sets, edge_sets,
                                 lambda_balance=0.8, temperature=0.1):
    """Eq. 12, the λ-weighted sum of the two loop losses over the masked-mean
    TPRs of ``steps``, with the arguments of ``repro.core.combined_wsc_loss``."""
    tprs = F.masked_mean(steps, np.asarray(mask, dtype=np.float64))
    if lambda_balance >= 1.0:
        return _reference_global_wsc_loss(tprs, contrast_sets, temperature=temperature)
    if lambda_balance <= 0.0:
        return _reference_local_wsc_loss(tprs, steps, edge_sets, temperature=temperature)
    global_term = _reference_global_wsc_loss(tprs, contrast_sets, temperature=temperature)
    local_term = _reference_local_wsc_loss(tprs, steps, edge_sets, temperature=temperature)
    return global_term * lambda_balance + local_term * (1.0 - lambda_balance)
