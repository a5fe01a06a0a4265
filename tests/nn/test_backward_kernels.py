"""Bit-level checks of the autograd engine's backward kernels.

``Tensor.__getitem__``'s backward scatters with one ``np.bincount`` over the
read's flat positions; it must give exactly the bits of ``np.add.at`` into
zeros (the engine's previous kernel), signs of zero included, for every kind
of index.  ``Tensor._accumulate`` stores the first gradient as an owned
copy and adds every later one in place; the regression tests pin that the
caller's arrays are never written and that repeated uses and repeated
``backward`` calls sum in order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor


def same_bits(actual, expected):
    """Equal values, shapes and signs of zero (``array_equal`` ignores -0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and np.array_equal(actual, expected)
            and np.array_equal(np.signbit(actual), np.signbit(expected)))


def add_at_gradient(data, index, grad):
    """The previous kernel: ``np.add.at`` into zeros, then ``zeros + full``."""
    full = np.zeros_like(data)
    np.add.at(full, index, grad)
    return np.zeros_like(data) + full


# Few distinct values plus both zeros, so duplicates and -0.0 both occur.
grad_values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-17, 3e16])


@st.composite
def indices(draw, shape):
    """An index of one of the kinds ``Tensor.__getitem__`` accepts."""
    first = shape[0]
    integers = st.lists(st.integers(-first, first - 1), min_size=0, max_size=8)
    kind = draw(st.sampled_from(
        ["int", "ints", "mask", "slice", "none", "ellipsis", "pair", "slice_array"]))
    if kind == "int":
        return draw(st.integers(-first, first - 1))
    if kind == "ints":
        return np.asarray(draw(integers), dtype=np.int64)
    if kind == "mask":
        full = draw(st.booleans())
        mask_shape = shape if full else shape[:1]
        bits = draw(st.lists(st.booleans(), min_size=int(np.prod(mask_shape)),
                             max_size=int(np.prod(mask_shape))))
        return np.asarray(bits, dtype=bool).reshape(mask_shape)
    if kind == "slice":
        start = draw(st.none() | st.integers(-first, first))
        stop = draw(st.none() | st.integers(-first, first))
        step = draw(st.sampled_from([None, 1, 2, -1, -2]))
        return slice(start, stop, step)
    if kind == "none":
        return (None, draw(st.integers(-first, first - 1)))
    if kind == "ellipsis":
        last = shape[-1]
        return (Ellipsis, np.asarray(draw(st.lists(st.integers(-last, last - 1),
                                                   min_size=1, max_size=6))))
    if len(shape) == 1:
        return np.asarray(draw(integers), dtype=np.int64)
    second = shape[1]
    count = draw(st.integers(0, 8))
    rows = np.asarray(draw(st.lists(st.integers(-first, first - 1),
                                    min_size=count, max_size=count)), dtype=np.int64)
    cols = np.asarray(draw(st.lists(st.integers(-second, second - 1),
                                    min_size=count, max_size=count)), dtype=np.int64)
    if kind == "pair":
        return (rows, cols)
    return (slice(None, None, draw(st.sampled_from([1, -1]))), cols)


@st.composite
def scatter_problems(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    index = draw(indices(shape))
    read_shape = np.empty(shape)[index].shape
    size = int(np.prod(read_shape))
    grad = np.asarray(draw(st.lists(grad_values, min_size=size, max_size=size)),
                      dtype=np.float64).reshape(read_shape)
    # Gradients and tensors need not be C-ordered (transposes, slices).
    if draw(st.booleans()):
        grad = np.asarray(grad, order="F")
    return shape, index, grad, draw(st.booleans())


class TestBincountScatter:
    @given(scatter_problems())
    @settings(max_examples=300, deadline=None)
    @example(((5,), np.array([-1, 4, 4, 0, -5]),
              np.array([1.0, 2.0, -0.0, 3.0, 0.1]), False))
    @example(((3, 2), (np.array([0, -3, 0]), np.array([1, -1, 1])),
              np.array([0.1, 0.2, 0.3]), True))
    @example(((2, 3, 2), (slice(None), np.array([2, -1, 0, 2])),
              np.full((2, 4, 2), -0.0), False))
    def test_matches_add_at_bit_for_bit(self, problem):
        shape, index, grad, fortran = problem
        data = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        if fortran:
            data = np.asarray(data, order="F")
        tensor = Tensor(data, requires_grad=True)
        tensor[index].backward(grad)
        assert same_bits(tensor.grad, add_at_gradient(data, index, grad))

    def test_negative_and_positive_alias_sum(self):
        tensor = Tensor(np.zeros(4), requires_grad=True)
        tensor[np.array([-1, 3, 3])].backward(np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(tensor.grad, [0.0, 0.0, 0.0, 7.0])

    def test_empty_read_gives_float64_zeros(self):
        tensor = Tensor(np.ones((3, 2)), requires_grad=True)
        tensor[np.array([], dtype=np.int64)].backward(np.zeros((0, 2)))
        assert tensor.grad.dtype == np.float64
        assert same_bits(tensor.grad, np.zeros((3, 2)))


class TestAccumulation:
    def test_backward_leaves_the_callers_gradient_unmodified(self):
        seed = np.array([1.0, -2.0, 3.0])
        kept = seed.copy()
        leaf = Tensor(np.ones(3), requires_grad=True)
        leaf.backward(seed)
        leaf.backward(seed)
        (leaf * 2.0).backward(seed)
        np.testing.assert_array_equal(seed, kept)
        assert not np.shares_memory(leaf.grad, seed)
        np.testing.assert_array_equal(leaf.grad, seed + seed + seed * 2.0)

    def test_tensor_used_twice_gets_the_summed_gradient(self):
        data = np.array([0.5, -1.5, 3.0])
        added = Tensor(data, requires_grad=True)
        (added + added).sum().backward()
        assert same_bits(added.grad, np.full(3, 2.0))
        squared = Tensor(data, requires_grad=True)
        (squared * squared).sum().backward()
        assert same_bits(squared.grad, data + data)

    def test_two_losses_sum_in_order_into_a_held_reference(self):
        rng = np.random.default_rng(0)
        data, weights = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def first(x):
            return (x * weights).sum()

        def second(x):
            return x.tanh().mean()

        grads = []
        for loss in (first, second):
            alone = Tensor(data, requires_grad=True)
            loss(alone).backward()
            grads.append(alone.grad)
        leaf = Tensor(data, requires_grad=True)
        first(leaf).backward()
        held = leaf.grad
        second(leaf).backward()
        # In-place accumulation, as in PyTorch: a held ``.grad`` sees it.
        assert held is leaf.grad
        assert same_bits(leaf.grad, grads[0] + grads[1])

    def test_broadcast_sum_gradient_is_owned_and_writeable(self):
        leaf = Tensor(np.ones((3, 4)), requires_grad=True)
        leaf.sum(axis=1).backward(np.array([1.0, 2.0, 3.0]))
        grad = leaf.grad
        assert grad.flags.writeable and grad.flags.owndata
        assert grad.flags.c_contiguous
        np.testing.assert_array_equal(grad, np.repeat([[1.0], [2.0], [3.0]], 4, axis=1))
        leaf.sum().backward()
        np.testing.assert_array_equal(leaf.grad[:, 0], [2.0, 3.0, 4.0])
