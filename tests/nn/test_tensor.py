"""Tests for the autograd engine: gradients checked against finite differences."""

from __future__ import annotations

import numpy as np
import pytest
from reference_lstm import stack

from repro.nn import Tensor, no_grad


def numerical_gradient(func, value, eps=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = func(value)
        flat[index] = original - eps
        lower = func(value)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build_scalar, shape, seed=0, tol=1e-4):
    """Compare autograd and numerical gradients for a scalar-valued graph."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)

    tensor = Tensor(value.copy(), requires_grad=True)
    output = build_scalar(tensor)
    output.backward()
    analytic = tensor.grad

    numeric = numerical_gradient(lambda v: float(build_scalar(Tensor(v)).data), value)
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestBasicOps:
    def test_data_is_always_float64(self):
        for payload in (1.5, [1, 2], np.arange(3), np.array([True, False]),
                        np.zeros(2, dtype=np.float32)):
            assert Tensor(payload).dtype == np.float64
        array = np.zeros(3)
        assert Tensor(array).data is array

    def test_add_forward(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_add_and_radd(self):
        out = 1.0 + Tensor([1.0, 2.0]) + 2.0
        np.testing.assert_allclose(out.data, [4.0, 5.0])

    def test_sub_and_rsub(self):
        out = 10.0 - Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.data, [9.0, 8.0])

    def test_mul_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose((a * b).data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        out = Tensor([2.0, 4.0]) / Tensor([2.0, 2.0])
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose((a @ b).data, a.data)

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestGradients:
    def test_add_gradient(self):
        check_gradient(lambda t: (t + t * 2.0).sum(), (3, 4))

    def test_sub_gradient(self):
        check_gradient(lambda t: (t - t * 0.5).sum(), (2, 5))

    def test_mul_gradient(self):
        check_gradient(lambda t: (t * t).sum(), (4,))

    def test_div_gradient(self):
        check_gradient(lambda t: (t / (t * t + 2.0)).sum(), (3, 3))

    def test_matmul_gradient(self):
        fixed = np.random.default_rng(1).normal(size=(4, 2))
        check_gradient(lambda t: (t @ Tensor(fixed)).sum(), (3, 4))

    def test_exp_gradient(self):
        check_gradient(lambda t: t.exp().sum(), (3,))

    def test_log_gradient(self):
        check_gradient(lambda t: (t * t + 1.0).log().sum(), (4,))

    def test_tanh_gradient(self):
        check_gradient(lambda t: t.tanh().sum(), (5,))

    def test_sigmoid_gradient(self):
        check_gradient(lambda t: t.sigmoid().sum(), (5,))

    def test_relu_gradient(self):
        # Shift away from 0 to keep the function differentiable at test points.
        check_gradient(lambda t: (t + 5.0).relu().sum(), (6,))

    def test_sum_axis_gradient(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), (3, 4))

    def test_max_gradient(self):
        rng = np.random.default_rng(3)
        value = rng.normal(size=(4, 5))
        tensor = Tensor(value, requires_grad=True)
        out = tensor.max(axis=1).sum()
        out.backward()
        # Gradient is 1 at each row's argmax, 0 elsewhere.
        expected = np.zeros_like(value)
        expected[np.arange(4), value.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(tensor.grad, expected)

    def test_getitem_gradient(self):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(), (3, 4))

    def test_fancy_index_gradient(self):
        rows = np.array([0, 0, 2])
        check_gradient(lambda t: (t[rows] ** 2).sum(), (3, 4))

    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose_gradient(self):
        check_gradient(lambda t: (t.transpose() @ Tensor(np.ones((2, 1)))).sum(), (2, 3))

    def test_concatenate_gradient(self):
        def build(t):
            return Tensor.concatenate([t, t * 2.0], axis=1).sum()
        check_gradient(build, (2, 3))

    def test_stack_gradient(self):
        # The LSTM oracle's stack node (tests/nn/reference_lstm.py).
        def build(t):
            return (stack([t, t * 3.0], axis=0) ** 2).sum()
        check_gradient(build, (2, 2))

    def test_broadcast_add_gradient(self):
        fixed = np.random.default_rng(2).normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(fixed) + t).sum(), (3,))

    def test_clip_gradient_inside_range(self):
        check_gradient(lambda t: (t.clip(-100.0, 100.0) * 2.0).sum(), (4,))


_FIXED = np.random.default_rng(11)
_MATRIX = _FIXED.normal(size=(4, 3))
_VECTOR = _FIXED.normal(size=(4,))
_BATCH = _FIXED.normal(size=(2, 3, 4))
_POSITIVE = _FIXED.uniform(1.0, 2.0, size=(3, 4))

#: Backward rules not exercised above: the right-hand operand of binary ops,
#: reflected scalar ops, 1-D and batched matmul, and reductions/reshapes with
#: non-default axes.  name -> (scalar graph of ``t``, shape of ``t``).
OPERAND_GRADIENT_CASES = {
    "add_right_operand": (lambda t: (Tensor(_MATRIX) + t).sum(), (4, 3)),
    "sub_right_operand": (lambda t: ((Tensor(_MATRIX) - t) ** 2).sum(), (4, 3)),
    "mul_right_broadcast": (lambda t: (Tensor(_MATRIX) * t).sum(), (1, 3)),
    "div_right_operand": (lambda t: (Tensor(_MATRIX) / (t * t + 1.0)).sum(), (4, 3)),
    "reflected_sub": (lambda t: ((2.0 - t) ** 2).sum(), (3,)),
    "reflected_div": (lambda t: (1.0 / (t * t + 1.0)).sum(), (3,)),
    "neg": (lambda t: (-(t * t)).sum(), (2, 2)),
    "pow_cubic": (lambda t: (t ** 3).sum(), (5,)),
    "sqrt": (lambda t: (t * t + 1.0).sqrt().sum(), (4,)),
    "matmul_right_operand": (lambda t: ((Tensor(_MATRIX.T) @ t) ** 2).sum(), (4, 2)),
    "matmul_vector_left": (lambda t: ((t @ Tensor(_MATRIX)) ** 2).sum(), (4,)),
    "matmul_vector_right": (lambda t: ((Tensor(_MATRIX.T) @ t) ** 2).sum(), (4,)),
    "matmul_vector_by_right_operand": (lambda t: ((Tensor(_VECTOR) @ t) ** 2).sum(), (4, 3)),
    "matmul_matrix_by_vector": (lambda t: ((t @ Tensor(_VECTOR)) ** 2).sum(), (3, 4)),
    "matmul_batched_by_vector": (lambda t: ((t @ Tensor(_VECTOR)) ** 2).sum(), (2, 3, 4)),
    "matmul_batched_broadcast": (lambda t: ((Tensor(_BATCH) @ t) ** 2).sum(), (4, 2)),
    "matmul_batched_left": (lambda t: ((t @ Tensor(_MATRIX)) ** 2).sum(), (2, 3, 4)),
    "sum_keepdims": (lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (3, 4)),
    "sum_all": (lambda t: t.sum() * t.sum(), (2, 3)),
    "mean_tuple_axis": (lambda t: (t.mean(axis=(0, 2)) ** 2).sum(), (2, 3, 4)),
    "mean_all": (lambda t: t.mean() * t.mean(), (3, 2)),
    "transpose_axes": (
        lambda t: (t.transpose(2, 0, 1) * Tensor(np.arange(24.0).reshape(4, 2, 3))).sum(),
        (2, 3, 4)),
    "getitem_3d_slice": (lambda t: (t[:, 1:, ::2] ** 2).sum(), (2, 3, 4)),
    "concatenate_axis0": (
        lambda t: (Tensor.concatenate([t, Tensor(_POSITIVE), t], axis=0) ** 2).sum(),
        (3, 4)),
    "stack_axis1": (
        lambda t: (stack([t, t * t], axis=1)
                   * Tensor(np.arange(12.0).reshape(3, 2, 2))).sum(),
        (3, 2)),
    "exp_of_product": (lambda t: (t * Tensor(_POSITIVE)).exp().sum(), (3, 4)),
    "log_of_positive": (lambda t: (t * t + Tensor(_POSITIVE)).log().sum(), (3, 4)),
}


class TestOperandGradients:
    @pytest.mark.parametrize("name", sorted(OPERAND_GRADIENT_CASES))
    def test_matches_finite_differences(self, name):
        build, shape = OPERAND_GRADIENT_CASES[name]
        check_gradient(build, shape, seed=len(name))

    def test_max_splits_gradient_between_ties(self):
        tensor = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, -1.0]]), requires_grad=True)
        tensor.max(axis=1).sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])

    def test_clip_blocks_gradient_outside_range(self):
        tensor = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        (tensor.clip(-1.0, 1.0) * 4.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 4.0, 0.0])

    def test_relu_blocks_gradient_for_negative_inputs(self):
        tensor = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        tensor.relu().sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0, 1.0])


class TestFloat64Contract:
    def test_scalar_operands_keep_float64(self):
        t = Tensor(np.arange(3))
        for out in (t * 0.5, t + 1, 1 - t, t / 2, 2.0 / (t + 1.0), t.mean()):
            assert out.dtype == np.float64

    def test_gradients_are_float64_for_integer_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3.0).backward(np.array([1, 2]))
        assert t.grad.dtype == np.float64
        np.testing.assert_allclose(t.grad, [3.0, 6.0])

    def test_full_reductions_are_float64_tensors(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        for out in (t.sum(), t.max(), t.mean()):
            assert isinstance(out, Tensor)
            assert out.dtype == np.float64
            assert out.shape == ()


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad_argument(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_misshaped_seed_grad_rejected_through_graph(self):
        # Regression: a (2, 3) seed was broadcast then summed down to (3,),
        # leaving x.grad == [4, 4, 4] with no error.
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
            (x * 2.0).backward(np.ones((2, 3)))
        assert x.grad is None

    def test_misshaped_seed_grad_rejected_on_leaf(self):
        # Regression: a leaf stored the (2, 3) seed as its (3,)-tensor's grad.
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
            x.backward(np.ones((2, 3)))
        assert x.grad is None

    def test_gradient_accumulates_over_multiple_uses(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (t * 2.0 + t * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_nesting_restores_state(self):
        with no_grad():
            with no_grad():
                pass
            t = Tensor([1.0], requires_grad=True)
            assert not (t * 1.0).requires_grad
        t = Tensor([1.0], requires_grad=True)
        assert (t * 1.0).requires_grad

    def test_diamond_graph_gradient(self):
        # f(x) = (x*2) * (x*3) = 6x^2 -> df/dx = 12x
        t = Tensor([2.0], requires_grad=True)
        left = t * 2.0
        right = t * 3.0
        (left * right).sum().backward()
        np.testing.assert_allclose(t.grad, [24.0])

    def test_shape_helpers(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2)
        assert t.ndim == 2
        assert t.size == 2
        assert len(Tensor([1.0, 2.0, 3.0])) == 3
