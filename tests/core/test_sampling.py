"""Tests for positive/negative sample generation (paper §V-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    augment_with_positive_views,
    build_contrast_sets,
    sample_edge_sets,
)
from repro.core.encoder import pad_paths
from repro.datasets import TemporalPath
from repro.temporal import DepartureTime, PeakOffPeakLabeler
from reference_sampling import (
    _reference_build_contrast_sets,
    _reference_sample_edge_sets,
)


def query_samples(edge_sets, side, i):
    """``(rows, cols)`` of query ``i``'s samples on ``side`` ("positive" or "negative")."""
    picked = getattr(edge_sets, f"{side}_query") == i
    return (getattr(edge_sets, f"{side}_rows")[picked],
            getattr(edge_sets, f"{side}_cols")[picked])


def make_batch():
    labeler = PeakOffPeakLabeler()
    paths = [
        TemporalPath(path=[1, 2, 3, 4], departure_time=DepartureTime.from_hour(0, 8.0)),
        TemporalPath(path=[1, 2, 3, 4], departure_time=DepartureTime.from_hour(0, 8.3)),
        TemporalPath(path=[1, 2, 3, 4], departure_time=DepartureTime.from_hour(0, 17.0)),
        TemporalPath(path=[5, 6, 7], departure_time=DepartureTime.from_hour(0, 8.2)),
        TemporalPath(path=[8, 9], departure_time=DepartureTime.from_hour(5, 12.0)),
    ]
    return [(tp, labeler(tp.departure_time)) for tp in paths], labeler


class TestAugmentation:
    def test_doubles_the_batch(self, rng):
        batch, labeler = make_batch()
        augmented = augment_with_positive_views(batch, labeler, rng)
        assert len(augmented) == 2 * len(batch)

    def test_views_preserve_path_and_label(self, rng):
        batch, labeler = make_batch()
        augmented = augment_with_positive_views(batch, labeler, rng)
        originals = augmented[:len(batch)]
        views = augmented[len(batch):]
        for (tp, label), (view, view_label) in zip(originals, views):
            assert view.path == tp.path
            assert view_label == label
            assert labeler(view.departure_time) == label


class TestContrastSets:
    def test_paper_example_structure(self):
        """Mirror of the paper's Fig. 5 minibatch: tp_q with one positive
        (same path + same label) and three kinds of negatives."""
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        # Query 0: positive = 1 (same path, same morning-peak label).
        assert np.flatnonzero(sets.positives[0]).tolist() == [1]
        # Negatives: 2 (same path, different label), 3 (different path, same
        # label), 4 (different path, different label).
        assert np.flatnonzero(sets.negatives[0]).tolist() == [2, 3, 4]

    def test_positive_relation_is_symmetric(self):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        np.testing.assert_array_equal(sets.positives, sets.positives.T)
        np.testing.assert_array_equal(sets.negatives, sets.negatives.T)

    def test_sets_partition_the_batch(self):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        eye = np.eye(len(batch), dtype=bool)
        assert sets.positives.dtype == sets.negatives.dtype == bool
        assert sets.positives.shape == sets.negatives.shape == eye.shape
        # Every other sample is exactly one of a positive and a negative.
        np.testing.assert_array_equal(sets.positives ^ sets.negatives, ~eye)
        assert not (sets.positives | sets.negatives)[eye].any()


class TestEdgeSampleSets:
    def test_edges_drawn_from_correct_paths(self, rng):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=2)

        for i in range(len(batch)):
            allowed_pos_rows = set(np.flatnonzero(sets.positives[i]).tolist()) | {i}
            assert set(query_samples(edge_sets, "positive", i)[0].tolist()) <= allowed_pos_rows
            allowed_neg_rows = set(np.flatnonzero(sets.negatives[i]).tolist())
            assert set(query_samples(edge_sets, "negative", i)[0].tolist()) <= allowed_neg_rows

    def test_column_indices_are_valid_positions(self, rng):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        paths = [tp for tp, _ in batch]
        _, mask = pad_paths(paths)
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=3)
        lengths = mask.sum(axis=1)
        for side in ("positive", "negative"):
            rows = getattr(edge_sets, f"{side}_rows")
            cols = getattr(edge_sets, f"{side}_cols")
            assert np.all(cols < lengths[rows])

    def test_respects_edges_per_path_limit(self, rng):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=1)
        # Query 0 has 1 positive path plus itself -> at most 2 positive edges.
        assert len(query_samples(edge_sets, "positive", 0)[0]) <= 2

    def test_pairs_are_query_first_then_ascending(self, rng):
        # The rng draws one row per (query, path) pair in this order, so the
        # order is part of every seeded result: per query, its own path, then
        # its positives ascending; its negatives ascending.
        batch, _ = make_batch()
        batch = batch + batch[::-1]
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=1)
        positive_rows = [[i] + np.flatnonzero(sets.positives[i]).tolist()
                         for i in range(len(batch))]
        negative_rows = [np.flatnonzero(sets.negatives[i]).tolist() for i in range(len(batch))]
        assert edge_sets.positive_rows.tolist() == sum(positive_rows, [])
        assert edge_sets.negative_rows.tolist() == sum(negative_rows, [])

    @pytest.mark.parametrize("empty", [False, True], ids=["paths", "no_valid_step"])
    def test_flat_samples_are_grouped_by_query(self, rng, empty):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask * (not empty), rng, edges_per_path=4)
        for side in ("positive", "negative"):
            arrays = [getattr(edge_sets, f"{side}_{name}") for name in ("rows", "cols", "query")]
            assert len({len(a) for a in arrays}) == 1
            assert all(a.dtype == np.int64 for a in arrays)
            assert np.all(np.diff(arrays[2]) >= 0)


    def test_side_without_pairs_is_empty(self, rng):
        # One (path, label) group: every query's negative side has no path.
        batch = make_batch()[0][:1] * 4
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=2)
        assert len(edge_sets.positive_rows) == 4 * 4 * 2
        for name in ("rows", "cols", "query"):
            negative = getattr(edge_sets, f"negative_{name}")
            assert negative.dtype == np.int64 and negative.size == 0


class TestSamplerRejectsBadInput:
    """Regressions: these inputs gave empty samples or a deep IndexError."""

    @pytest.mark.parametrize("edges_per_path", [0, -1, 1.5, True])
    def test_edges_per_path_must_be_a_positive_integer(self, rng, edges_per_path):
        batch, _ = make_batch()
        _, mask = pad_paths([tp for tp, _ in batch])
        with pytest.raises(ValueError, match=f"edges_per_path .*{edges_per_path}"):
            sample_edge_sets(build_contrast_sets(batch), mask, rng,
                             edges_per_path=edges_per_path)

    @pytest.mark.parametrize("rows", [3, 7])
    def test_mask_needs_one_row_per_sample(self, rng, rows):
        batch, _ = make_batch()
        with pytest.raises(ValueError, match=rf"\({rows}, {rows}\) .*\({rows}, 4\), got \(5, 5\)"):
            sample_edge_sets(build_contrast_sets(batch), np.ones((rows, 4)), rng)

    @pytest.mark.parametrize("side", ["positives", "negatives"])
    def test_contrast_matrices_must_be_square_in_the_mask_rows(self, rng, side):
        # The batch size comes from the mask's rows, so either matrix having
        # another shape must raise rather than index out of range.
        batch, _ = make_batch()
        _, mask = pad_paths([tp for tp, _ in batch])
        sets = build_contrast_sets(batch)
        setattr(sets, side, getattr(sets, side)[:, :4])
        with pytest.raises(ValueError, match=r"\(5, 5\) .*\(5, 4\), got \(5, 4\)"):
            sample_edge_sets(sets, mask, rng)

    def test_mask_must_be_two_dimensional(self, rng):
        batch, _ = make_batch()
        with pytest.raises(ValueError, match=r"mask must be \(batch, time\), got shape \(5,\)"):
            sample_edge_sets(build_contrast_sets(batch), np.ones(5), rng)


class TestGroupedContrastSetsRegression:
    """The O(n) dict-grouped construction must reproduce the O(n²) scan."""

    def _random_batch(self, size, seed):
        rng = np.random.default_rng(seed)
        labeler = PeakOffPeakLabeler()
        pool = [
            [1, 2, 3, 4],
            [1, 2, 3, 4],   # duplicated on purpose: same-path groups
            [5, 6, 7],
            [8, 9],
        ]
        batch = []
        for _ in range(size):
            path = pool[rng.integers(0, len(pool))]
            hour = float(rng.uniform(0.0, 24.0))
            tp = TemporalPath(path=list(path),
                              departure_time=DepartureTime.from_hour(
                                  int(rng.integers(0, 7)), hour))
            batch.append((tp, labeler(tp.departure_time)))
        return batch

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("size", [2, 7, 33])
    def test_matches_pairwise_scan_on_randomized_batch(self, seed, size):
        batch = self._random_batch(size, seed)
        fast = build_contrast_sets(batch)
        slow = _reference_build_contrast_sets(batch)
        np.testing.assert_array_equal(fast.positives, slow.positives)
        np.testing.assert_array_equal(fast.negatives, slow.negatives)


class TestVectorizedEdgeSampler:
    """Distributional/structural checks for the batched edge sampler."""

    def test_reference_sampler_same_structure(self, rng):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        lengths = mask.sum(axis=1)

        for sampler in (sample_edge_sets, _reference_sample_edge_sets):
            edge_sets = sampler(sets, mask, np.random.default_rng(0),
                                edges_per_path=2)
            for i in range(len(batch)):
                positive_rows, positive_cols = query_samples(edge_sets, "positive", i)
                negative_rows, negative_cols = query_samples(edge_sets, "negative", i)
                allowed_pos = set(np.flatnonzero(sets.positives[i]).tolist()) | {i}
                assert set(positive_rows.tolist()) <= allowed_pos
                allowed_neg = set(np.flatnonzero(sets.negatives[i]).tolist())
                assert set(negative_rows.tolist()) <= allowed_neg
                assert np.all(positive_cols < lengths[positive_rows])
                assert np.all(negative_cols < lengths[negative_rows])

    def test_draws_without_replacement_per_path(self, rng):
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        edge_sets = sample_edge_sets(sets, mask, rng, edges_per_path=3)
        for i in range(len(batch)):
            seen = set()
            for row, col in zip(*query_samples(edge_sets, "positive", i)):
                assert (int(row), int(col)) not in seen
                seen.add((int(row), int(col)))

    def test_sample_counts_match_reference_sampler(self, rng):
        """Both samplers draw min(edges_per_path, length) edges per pair."""
        batch, _ = make_batch()
        sets = build_contrast_sets(batch)
        _, mask = pad_paths([tp for tp, _ in batch])
        fast = sample_edge_sets(sets, mask, np.random.default_rng(1),
                                edges_per_path=2)
        slow = _reference_sample_edge_sets(sets, mask,
                                           np.random.default_rng(1),
                                           edges_per_path=2)
        for side in ("positive", "negative"):
            np.testing.assert_array_equal(getattr(fast, f"{side}_query"),
                                          getattr(slow, f"{side}_query"))
