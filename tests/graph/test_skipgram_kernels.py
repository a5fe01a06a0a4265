"""Bit-level checks of the two kernels of ``SkipGramTrainer.train``.

The epoch reorder ``pairs[rng.permutation(n)]`` must give exactly the order
``Generator.shuffle`` gives the ``(n, 2)`` pair array and leave the
generator in the same state, and ``_scatter_add`` must give exactly the
bits of ``np.add.at``, signs of zero included, on a target without ``-0.0``
cells, which SGNS never makes.  The last test trains
against ``reference_skipgram._reference_train``, the loop that still uses
both numpy calls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import SkipGramTrainer
from repro.graph.skipgram import _scatter_add
from reference_skipgram import _reference_train


def same_bits(actual, expected):
    """Equal bytes: equal values, shapes, dtypes and signs of zero."""
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and actual.tobytes() == expected.tobytes())


# Few distinct values plus both zeros, so repeats, cancellations and -0.0 occur.
values = st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 0.1, 1e-17, 3e16, -3e16])
# _scatter_add's precondition: the target holds no -0.0.
target_values = values.filter(lambda value: value != 0 or not np.signbit(value))


@st.composite
def scatters(draw):
    """A ``(target, rows, updates)`` case; rows repeat and may be all one row."""
    num_rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    target = np.array(draw(st.lists(target_values, min_size=num_rows * width,
                                    max_size=num_rows * width))).reshape(num_rows, width)
    rows = np.array(draw(st.lists(st.integers(0, num_rows - 1), max_size=12)), dtype=np.int64)
    updates = np.array(draw(st.lists(values, min_size=rows.size * width,
                                     max_size=rows.size * width))).reshape(rows.size, width)
    return target, rows, updates


class TestScatterAdd:
    @settings(max_examples=300, deadline=None)
    @given(scatters())
    # A +0.0 cell plus -0.0 updates stays +0.0; x + -x is +0.0.
    @example((np.array([[0.0, 1.0]]), np.array([0, 0]), np.array([[-0.0, -1.0], [-0.0, -0.0]])))
    @example((np.array([[0.0], [1.0]]), np.array([0]), np.array([[-0.0]])))
    @example((np.array([[2.0]]), np.zeros(0, dtype=np.int64), np.zeros((0, 1))))
    def test_matches_add_at_bit_for_bit(self, case):
        target, rows, updates = case
        expected = target.copy()
        np.add.at(expected, rows, updates)
        actual = target.copy()
        _scatter_add(actual, rows, updates)
        assert same_bits(actual, expected)

    def test_sums_a_repeated_row_left_to_right(self):
        # (1 + 1e16) + -1e16 is 0.0 in float64; the other order gives 1.0.
        target = np.array([[1.0]])
        _scatter_add(target, np.array([0, 0]), np.array([[1e16], [-1e16]]))
        assert target[0, 0] == 0.0


class TestPermutationTake:
    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @example(size=1, seed=0)
    @example(size=2, seed=0)
    @example(size=48_384, seed=0)
    def test_matches_generator_shuffle(self, size, seed):
        pairs = np.arange(2 * size, dtype=np.int64).reshape(size, 2) * 7 % 11
        shuffled, shuffler = pairs.copy(), np.random.default_rng(seed)
        shuffler.shuffle(shuffled)
        taker = np.random.default_rng(seed)
        taken = pairs[taker.permutation(len(pairs))]
        assert same_bits(taken, shuffled)
        assert taker.bit_generator.state == shuffler.bit_generator.state


def walk_corpora():
    """A few walks over up to 12 nodes, as ``RandomWalker`` would return."""
    walk = st.lists(st.integers(0, 11), min_size=1, max_size=8)
    return st.lists(walk, min_size=1, max_size=10)


class TestTrainingMatchesTheNumpyKernels:
    @settings(max_examples=60, deadline=None)
    @given(walks=walk_corpora(), seed=st.integers(0, 2**16), epochs=st.integers(1, 3),
           batch_size=st.integers(1, 9))
    def test_embeddings_bit_for_bit(self, walks, seed, epochs, batch_size):
        def trainer():
            return SkipGramTrainer(num_nodes=12, dim=3, window=2, negatives=2, seed=seed,
                                   batch_size=batch_size)
        engine, reference = trainer(), trainer()
        engine.train(walks, epochs=epochs)
        _reference_train(reference, walks, epochs=epochs)
        assert same_bits(engine.in_embeddings, reference.in_embeddings)
        assert same_bits(engine.out_embeddings, reference.out_embeddings)
        assert engine.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_embeddings_never_hold_negative_zero(self):
        # _scatter_add's precondition holds in SGNS: the out-vectors start at
        # +0.0, the in-vectors at uniform draws, and a sum is -0.0 only when
        # both its terms are.
        trainer = SkipGramTrainer(num_nodes=12, dim=3, seed=0)
        walks = [[0, 1, 2, 3], [3, 4, 5], [6, 7, 8, 9, 10, 11]]
        for embeddings in (trainer.in_embeddings, trainer.out_embeddings):
            assert not (np.signbit(embeddings) & (embeddings == 0)).any()
        trainer.train(walks, epochs=2)
        for embeddings in (trainer.in_embeddings, trainer.out_embeddings):
            assert not (np.signbit(embeddings) & (embeddings == 0)).any()
