"""Tests for repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def _softmax(x, axis=-1):
    exps = np.exp(x - x.max(axis=axis, keepdims=True))
    return exps / exps.sum(axis=axis, keepdims=True)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(2, 6))
        np.testing.assert_allclose(F.log_softmax(Tensor(x)).data, np.log(_softmax(x)),
                                   atol=1e-10)


class TestLogSumExp:
    def test_matches_scipy_definition(self, rng):
        x = rng.normal(size=(5,))
        expected = np.log(np.exp(x).sum())
        assert float(F.logsumexp(Tensor(x)).data) == pytest.approx(expected)

    def test_stable_for_large_inputs(self):
        value = float(F.logsumexp(Tensor([1000.0, 1000.0])).data)
        assert value == pytest.approx(1000.0 + np.log(2.0))

    def test_gradient_is_softmax(self):
        x = Tensor(np.array([0.5, 1.5, -0.3]), requires_grad=True)
        F.logsumexp(x).backward()
        np.testing.assert_allclose(x.grad, _softmax(x.data), atol=1e-10)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = Tensor([[1.0, 2.0, 3.0]])
        assert float(F.cosine_similarity(v, v).data[0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        assert float(F.cosine_similarity(a, b).data[0]) == pytest.approx(0.0, abs=1e-9)

    def test_opposite_vectors(self):
        a = Tensor([[1.0, 1.0]])
        b = Tensor([[-1.0, -1.0]])
        assert float(F.cosine_similarity(a, b).data[0]) == pytest.approx(-1.0)

    def test_scale_invariance(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        s1 = F.cosine_similarity(Tensor(a), Tensor(b)).data
        s2 = F.cosine_similarity(Tensor(a * 10.0), Tensor(b * 0.01)).data
        np.testing.assert_allclose(s1, s2, atol=1e-9)

    def test_normalize_produces_unit_vectors(self, rng):
        x = Tensor(rng.normal(size=(6, 5)))
        norms = np.linalg.norm(F.normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, np.ones(6), atol=1e-9)


class TestSoftplus:
    def test_matches_log_of_one_plus_exp(self, rng):
        x = rng.normal(scale=5.0, size=(3, 4))
        np.testing.assert_array_equal(F.softplus(Tensor(x)).data, np.log(np.exp(x) + 1.0))

    def test_accepts_plain_arrays(self):
        np.testing.assert_allclose(F.softplus(np.array([0.0, 30.0])).data,
                                   [np.log(2.0), 30.0], rtol=1e-12)


class TestMaskedMean:
    def test_averages_only_the_valid_steps(self, rng):
        x = rng.normal(size=(2, 3, 4))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        expected = np.stack([x[0, :2].mean(axis=0), x[1, 0]])
        np.testing.assert_allclose(F.masked_mean(Tensor(x), mask).data, expected, atol=1e-12)

    def test_row_without_a_valid_step_is_zero(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        out = F.masked_mean(x, mask).data
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out[1], 0.0)


class TestLosses:
    def test_mse_zero_for_equal_inputs(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert float(F.mse_loss(x, Tensor(x.data.copy())).data) == pytest.approx(0.0)

    def test_mse_value(self):
        loss = F.mse_loss(Tensor([2.0, 2.0]), Tensor([0.0, 0.0]))
        assert float(loss.data) == pytest.approx(4.0)

    def test_bce_with_logits_matches_manual(self):
        logits = np.array([0.3, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets))
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_bce_stable_for_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), Tensor([1.0, 0.0]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_prefers_correct_class(self):
        good = F.cross_entropy(Tensor([[10.0, 0.0], [0.0, 10.0]]), [0, 1])
        bad = F.cross_entropy(Tensor([[10.0, 0.0], [0.0, 10.0]]), [1, 0])
        assert float(good.data) < float(bad.data)

    def test_losses_are_differentiable(self):
        prediction = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        F.mse_loss(prediction, Tensor([0.0, 0.0])).backward()
        assert prediction.grad is not None
        np.testing.assert_allclose(prediction.grad, [1.0, 2.0])



_OTHER = np.random.default_rng(5).normal(size=(3, 4))
_TARGETS = np.array([1.0, 0.0, 1.0, 0.0])
_CLASSES = np.array([2, 0, 3])
_WEIGHTS = np.arange(12.0).reshape(3, 4)
_STEP_MASK = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

#: The ops the WSC losses and baselines differentiate through.
#: name -> (scalar graph of ``t``, shape of ``t``).
GRADIENT_CASES = {
    "log_softmax": (lambda t: (F.log_softmax(t) * Tensor(_WEIGHTS)).sum(), (3, 4)),
    "logsumexp_rows": (lambda t: (F.logsumexp(t, axis=-1) ** 2).sum(), (3, 4)),
    "logsumexp_axis0_keepdims": (
        lambda t: (F.logsumexp(t, axis=0, keepdims=True) * t).sum(), (3, 4)),
    "normalize": (lambda t: (F.normalize(t) * Tensor(_WEIGHTS)).sum(), (3, 4)),
    "cosine_similarity_left": (
        lambda t: (F.cosine_similarity(t, Tensor(_OTHER)) ** 2).sum(), (3, 4)),
    "cosine_similarity_right": (
        lambda t: F.cosine_similarity(Tensor(_OTHER), t).sum(), (3, 4)),
    "mse_loss": (lambda t: F.mse_loss(t, Tensor(_OTHER)), (3, 4)),
    "cross_entropy": (lambda t: F.cross_entropy(t, _CLASSES), (3, 4)),
    "softplus": (lambda t: (F.softplus(t) * Tensor(_WEIGHTS)).sum(), (3, 4)),
    "masked_mean": (
        lambda t: (F.masked_mean(t, _STEP_MASK) * Tensor(_WEIGHTS[:2])).sum(), (2, 3, 4)),
}


def assert_gradient_matches(build, shape, seed, eps=1e-6):
    """Autograd gradient of ``build`` equals central finite differences."""
    value = np.random.default_rng(seed).normal(size=shape)
    tensor = Tensor(value.copy(), requires_grad=True)
    build(tensor).backward()

    numeric = np.zeros_like(value)
    for index in np.ndindex(*shape):
        shifted = value.copy()
        shifted[index] += eps
        upper = float(build(Tensor(shifted)).data)
        shifted[index] -= 2 * eps
        lower = float(build(Tensor(shifted)).data)
        numeric[index] = (upper - lower) / (2 * eps)
    np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-4, atol=1e-6)


class TestGradients:
    @pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
    def test_matches_finite_differences(self, name):
        build, shape = GRADIENT_CASES[name]
        assert_gradient_matches(build, shape, seed=len(name))

    def test_bce_with_logits_matches_finite_differences(self):
        assert_gradient_matches(
            lambda t: F.binary_cross_entropy_with_logits(t, Tensor(_TARGETS)), (4,), seed=0)

    def test_cross_entropy_value(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        targets = np.array([1, 2])
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[[0, 1], targets].mean()
        assert float(F.cross_entropy(Tensor(logits), targets).data) == pytest.approx(expected)
