"""Tests for train/test splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import grouped_train_test_split, minibatch_indices, train_test_split


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(list(range(100)), test_fraction=0.2, seed=0)
        assert len(test) == 20
        assert len(train) == 80

    def test_disjoint_and_complete(self):
        items = list(range(50))
        train, test = train_test_split(items, test_fraction=0.3, seed=1)
        assert set(train) | set(test) == set(items)
        assert not set(train) & set(test)

    def test_deterministic_given_seed(self):
        a = train_test_split(list(range(30)), seed=5)
        b = train_test_split(list(range(30)), seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = train_test_split(list(range(100)), seed=1)[1]
        b = train_test_split(list(range(100)), seed=2)[1]
        assert a != b

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], test_fraction=1.0)

    @pytest.mark.parametrize("test_fraction", ["a", None, True])
    def test_non_real_fraction_rejected(self, test_fraction):
        # "a" and None used to raise a TypeError from the comparison.
        with pytest.raises(ValueError, match=rf"^test_fraction must be a finite real in "
                                             rf"\(0, 1\), got {test_fraction!r}$"):
            train_test_split([1, 2, 3], test_fraction=test_fraction)


class TestGroupedSplit:
    def test_groups_do_not_straddle(self):
        items = list(range(40))
        groups = [i // 4 for i in items]
        train, test = grouped_train_test_split(items, groups, test_fraction=0.25, seed=0)
        train_groups = {i // 4 for i in train}
        test_groups = {i // 4 for i in test}
        assert not train_groups & test_groups

    def test_all_items_preserved(self):
        items = list(range(30))
        groups = [i % 6 for i in items]
        train, test = grouped_train_test_split(items, groups, seed=3)
        assert sorted(train + test) == items

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            grouped_train_test_split([1, 2, 3], [0, 1])

    @pytest.mark.parametrize("test_fraction", [0.0, -0.5, 1.0, 1.5])
    def test_invalid_fraction_rejected(self, test_fraction):
        # 0.0 and -0.5 used to give a silent one-group test split, 1.5 a
        # misleading empty-train error downstream.
        with pytest.raises(ValueError, match=rf"test_fraction must be a finite real in \(0, 1\), "
                                             rf"got {test_fraction}"):
            grouped_train_test_split(list(range(8)), [i // 2 for i in range(8)],
                                     test_fraction=test_fraction)


def _hand_written_minibatches(count, batch_size, rng, epochs, max_batches, body,
                              shuffle_in_place):
    """The loop every model used to copy: a reference for minibatch_indices."""
    batches = []
    for _ in range(epochs):
        if shuffle_in_place:           # the trainer's and the dataset's form
            order = np.arange(count)
            rng.shuffle(order)
        else:                          # the baselines' form
            order = rng.permutation(count)
        done = 0
        for start in range(0, len(order), batch_size):
            if max_batches is not None and done >= max_batches:
                break
            indices = order[start:start + batch_size]
            if len(indices) < 2:
                continue
            batches.append((indices.tolist(), body(rng)))
            done += 1
    return batches


class TestMinibatchIndices:
    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(0, 40),
        batch_size=st.integers(2, 9),
        epochs=st.integers(0, 3),
        max_batches=st.none() | st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        shuffle_in_place=st.booleans(),
    )
    def test_matches_the_hand_written_loop(self, count, batch_size, epochs, max_batches,
                                           seed, shuffle_in_place):
        """Same batches and the same generator state, with a draw between batches."""
        def body(rng):
            return float(rng.random())

        reference_rng = np.random.default_rng(seed)
        expected = _hand_written_minibatches(count, batch_size, reference_rng, epochs,
                                             max_batches, body, shuffle_in_place)
        rng = np.random.default_rng(seed)
        actual = [(indices.tolist(), body(rng)) for indices in minibatch_indices(
            count, batch_size, rng, epochs=epochs, max_batches=max_batches)]
        assert actual == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_short_tail_is_skipped(self):
        batches = list(minibatch_indices(9, 4, np.random.default_rng(0)))
        assert [len(b) for b in batches] == [4, 4]

    def test_max_batches_caps_each_epoch(self):
        batches = list(minibatch_indices(20, 4, np.random.default_rng(0), epochs=3,
                                         max_batches=2))
        assert len(batches) == 6

    @pytest.mark.parametrize("batch_size", [-1, 0, 1, 2.5, True])
    def test_batch_size_below_two_rejected(self, batch_size):
        # 2.5 used to raise a TypeError from range.
        with pytest.raises(ValueError, match="batch_size"):
            list(minibatch_indices(10, batch_size, np.random.default_rng(0)))
