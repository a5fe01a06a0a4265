"""Property-based tests for the autograd engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F


finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False),
)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_addition_is_commutative(values):
    a = Tensor(values)
    b = Tensor(values * 0.5 + 1.0)
    np.testing.assert_allclose((a + b).data, (b + a).data)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_multiplication_by_one_is_identity(values):
    tensor = Tensor(values)
    np.testing.assert_allclose((tensor * 1.0).data, values)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_exp_log_round_trip(values):
    tensor = Tensor(values)
    round_trip = tensor.exp().log()
    np.testing.assert_allclose(round_trip.data, values, atol=1e-8)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_sum_of_parts_equals_total(values):
    tensor = Tensor(values)
    total = float(tensor.sum().data)
    assert np.isclose(total, values.sum())


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_gradient_of_sum_is_all_ones(values):
    tensor = Tensor(values, requires_grad=True)
    tensor.sum().backward()
    np.testing.assert_allclose(tensor.grad, np.ones_like(values))


@given(finite_arrays, st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_scaling_scales_gradient(values, scale):
    tensor = Tensor(values, requires_grad=True)
    (tensor * scale).sum().backward()
    np.testing.assert_allclose(tensor.grad, np.full_like(values, scale))


@given(hnp.arrays(dtype=np.float64, shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
                  elements=st.floats(min_value=-5, max_value=5,
                                     allow_nan=False, allow_infinity=False)))
@settings(max_examples=50, deadline=None)
def test_cosine_similarity_bounded(matrix):
    a = Tensor(matrix)
    b = Tensor(np.roll(matrix, 1, axis=0))
    sims = F.cosine_similarity(a, b).data
    assert (sims <= 1.0 + 1e-9).all()
    assert (sims >= -1.0 - 1e-9).all()
