"""Positive / negative sample generation from weak labels (paper §V-A).

Given a minibatch of temporal paths with weak labels:

* positives of a query are the other temporal paths in the batch with the
  *same path* and the *same weak label* (their exact departure times differ),
* negatives are everything else: same path / different label, different path /
  same label, and different path / different label.

Real minibatches rarely contain two trips over the exact same path, so —
like the original artifact — we *augment* each batch: every temporal path is
paired with a second view that keeps the path and weak label but re-samples
the departure time inside the same label window.  This guarantees at least
one positive per query while preserving the paper's definition.

The contrast sets are two boolean ``(batch, batch)`` matrices, which the
global loss (Eq. 10) uses as masks.  For the local loss (Eq. 11),
positive/negative *edge* samples are drawn at random from the
positive/negative temporal paths of each query, the pairs read from the
matrices' nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_integer
from ..datasets.temporal_paths import TemporalPath

__all__ = [
    "augment_with_positive_views",
    "build_contrast_sets",
    "sample_edge_sets",
    "ContrastSets",
    "EdgeSampleSets",
]


def _jitter_departure(departure_time, weak_labeler, rng, max_shift_minutes=45, attempts=8):
    """Shift a departure time while keeping its weak label unchanged."""
    label = weak_labeler.label(departure_time)
    for _ in range(attempts):
        shift = float(rng.uniform(-max_shift_minutes, max_shift_minutes)) * 60.0
        candidate = departure_time.shift(shift)
        if weak_labeler.label(candidate) == label:
            return candidate
    return departure_time


def augment_with_positive_views(batch, weak_labeler, rng, max_shift_minutes=45):
    """Return the batch with one positive view appended for each sample.

    ``batch`` is a list of ``(TemporalPath, weak_label)``; the result has
    length ``2 * len(batch)`` and positive views carry the same weak label.
    """
    augmented = list(batch)
    for temporal_path, label in batch:
        view_time = _jitter_departure(
            temporal_path.departure_time, weak_labeler, rng,
            max_shift_minutes=max_shift_minutes,
        )
        view = TemporalPath(path=temporal_path.path, departure_time=view_time)
        augmented.append((view, label))
    return augmented


@dataclass
class ContrastSets:
    """Positive and negative paths of every query within a batch.

    ``positives`` and ``negatives`` are boolean ``(batch, batch)`` matrices:
    row ``i`` marks the paper's ``S_tpi`` and ``N_tpi`` of query ``i``.
    """

    positives: np.ndarray
    negatives: np.ndarray


def build_contrast_sets(batch):
    """Compute ``S_tpi`` and ``N_tpi`` for every sample in the batch.

    ``batch`` is a list of ``(TemporalPath, weak_label)``.  Each sample gets
    one integer id per ``(path, weak_label)`` key; positives of query ``i``
    share its id, itself excluded, and negatives are every other sample.
    ``tests/core/reference_sampling.py`` keeps the pairwise scan as oracle.
    """
    ids = {}
    group = np.array([ids.setdefault((tuple(tp.path), label), len(ids))
                      for tp, label in batch], dtype=np.int64)
    same = group[:, None] == group[None, :]
    return ContrastSets(positives=same & ~np.eye(len(batch), dtype=bool), negatives=~same)


@dataclass
class EdgeSampleSets:
    """Sampled positive/negative edge positions for the local loss, flat.

    Positive sample ``k`` is the edge at ``(positive_rows[k],
    positive_cols[k])`` of the (batch, time) grid of spatio-temporal edge
    representations, drawn for query ``positive_query[k]``; likewise for
    negatives.  Each side's samples are grouped by query in ascending order,
    and a query with no sample on a side has no usable samples.
    """

    positive_rows: np.ndarray
    positive_cols: np.ndarray
    positive_query: np.ndarray
    negative_rows: np.ndarray
    negative_cols: np.ndarray
    negative_query: np.ndarray


def sample_edge_sets(contrast_sets, mask, rng, edges_per_path=2):
    """Draw positive/negative edge samples for the local WSC loss.

    ``mask`` is the batch's ``(batch, time)`` valid-step mask and
    ``contrast_sets`` its :class:`ContrastSets`.  Positive edges come from
    the query's positive temporal paths (including the query itself, whose
    edges trivially share its path and weak label); negative edges come from
    its negative temporal paths.

    All ``(query, path)`` pairs are drawn in one batched pass: a uniform
    matrix scores every pair's columns (+inf past the path's end), and each
    of ``edges_per_path`` rounds of a row-wise ``argmin`` picks a pair's
    lowest score and sets it to +inf; a pair's first ``min(edges_per_path,
    length)`` picks are a uniform sample without replacement.  The per-query
    loop sampler is the test oracle in ``tests/core/reference_sampling.py``
    (same distribution, different random stream).
    """
    check_integer("edges_per_path", edges_per_path, low=1)
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must be (batch, time), got shape {mask.shape}")
    size = mask.shape[0]
    for matrix in (contrast_sets.positives, contrast_sets.negatives):
        if matrix.shape != (size, size):
            raise ValueError(f"contrast sets must be ({size}, {size}) for a mask of shape "
                             f"{mask.shape}, got {matrix.shape}")
    lengths = mask.sum(axis=1).astype(np.int64)
    max_len = int(mask.shape[1])

    def draw_group(query_of_pair, pair_rows):
        pair_lengths = lengths[pair_rows]
        counts = np.minimum(edges_per_path, pair_lengths)
        scores = rng.random((len(pair_rows), max_len))
        scores[np.arange(max_len)[None, :] >= pair_lengths[:, None]] = np.inf
        pairs = np.arange(len(pair_rows))
        ranked_cols = np.empty((len(pair_rows), min(edges_per_path, max_len)), dtype=np.int64)
        for rank in range(ranked_cols.shape[1]):
            ranked_cols[:, rank] = picks = scores.argmin(axis=1)
            scores[pairs, picks] = np.inf

        # Pairs are ordered by query, so the samples are too.
        take = np.arange(ranked_cols.shape[1])[None, :] < counts[:, None]
        return (np.repeat(pair_rows, counts), ranked_cols[take],
                np.repeat(query_of_pair, counts))

    # Each query's own path first, then its positives in ascending order.
    queries, paths = np.nonzero(contrast_sets.positives | np.eye(size, dtype=bool))
    first = np.lexsort((paths, paths != queries, queries))
    return EdgeSampleSets(*draw_group(queries[first], paths[first]),
                          *draw_group(*np.nonzero(contrast_sets.negatives)))
