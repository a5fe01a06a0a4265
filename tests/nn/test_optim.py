"""Tests for the Adam optimiser, gradient clipping and ``Optimizer.minimize``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


def quadratic_loss(parameter):
    """Simple convex objective ||p - 3||^2."""
    diff = parameter - 3.0
    return (diff * diff).sum()


class TestAdam:
    def test_first_steps_match_formula(self):
        p = nn.Parameter(np.array([1.0, -2.0]))
        optimizer = nn.Adam([p], lr=0.1)
        m = v = np.zeros(2)
        expected = p.data.copy()
        for step in (1, 2):
            optimizer.zero_grad()
            quadratic_loss(p).backward()
            grad = 2.0 * (expected - 3.0)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1.0 - 0.9 ** step)
            v_hat = v / (1.0 - 0.999 ** step)
            expected = expected - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
            optimizer.step()
            np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_zero_grad_clears_managed_parameters(self):
        params = [nn.Parameter(np.ones(2)), nn.Parameter(np.ones(3))]
        for p in params:
            p.grad = np.ones_like(p.data)
        nn.Adam(params).zero_grad()
        assert all(p.grad is None for p in params)

    def test_converges_on_quadratic(self):
        p = nn.Parameter(np.array([10.0, -8.0]))
        optimizer = nn.Adam([p], lr=0.1)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(p).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, [3.0, 3.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        p = nn.Parameter(np.array([1.0]))
        q = nn.Parameter(np.array([2.0]))
        optimizer = nn.Adam([p, q], lr=0.1)
        p.grad = np.array([1.0])
        optimizer.step()
        np.testing.assert_allclose(q.data, [2.0])
        assert p.data[0] != 1.0

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_rejects_non_positive_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([nn.Parameter(np.zeros(1))], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), True])
    def test_rejects_non_finite_or_bool_lr(self, lr):
        # Regression: lr=nan passed ``lr <= 0``, and one minimize then wrote
        # NaN into every parameter.
        with pytest.raises(ValueError,
                           match=rf"lr must be a finite real in \(0, inf\), got {lr!r}"):
            nn.Adam([nn.Parameter(np.zeros(2))], lr=lr)

    def test_trains_a_linear_model(self, rng):
        """Adam should fit a small least-squares problem."""
        true_weights = np.array([2.0, -1.0, 0.5])
        x = rng.normal(size=(64, 3))
        y = x @ true_weights
        layer = nn.Linear(3, 1, rng=np.random.default_rng(0))
        optimizer = nn.Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            optimizer.zero_grad()
            prediction = layer(nn.Tensor(x)).reshape(-1)
            loss = nn.functional.mse_loss(prediction, nn.Tensor(y))
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data.reshape(-1), true_weights, atol=0.05)


class TestMinimize:
    def test_returns_the_loss_value(self):
        p = nn.Parameter(np.array([1.0, -2.0]))
        assert nn.Adam([p], lr=0.1).minimize(quadratic_loss(p)) == 4.0 + 25.0

    def test_matches_the_written_out_step(self):
        p, q = nn.Parameter(np.array([1.0, -2.0])), nn.Parameter(np.array([1.0, -2.0]))
        by_hand, minimizing = nn.Adam([p], lr=0.1), nn.Adam([q], lr=0.1)
        for _ in range(3):
            by_hand.zero_grad()
            quadratic_loss(p).backward()
            by_hand.step()
            minimizing.minimize(quadratic_loss(q))
        np.testing.assert_array_equal(q.data, p.data)

    def test_clips_only_when_max_norm_is_given(self, monkeypatch):
        # A gradient of norm 10: Adam's first step is lr * sign(grad) either
        # way, so look at the gradient the step sees.
        seen = []
        monkeypatch.setattr(nn.Adam, "step", lambda self: seen.append(self.parameters[0].grad))
        p = nn.Parameter(np.array([0.0]))
        optimizer = nn.Adam([p], lr=0.1)
        optimizer.minimize((p * 10.0).sum())
        optimizer.minimize((p * 10.0).sum(), max_norm=2.0)
        optimizer.minimize((p * 10.0).sum(), max_norm=50.0)
        np.testing.assert_array_equal(np.concatenate(seen), [10.0, 2.0, 10.0])

    def test_clears_gradients_left_from_an_earlier_backward(self):
        p, q = nn.Parameter(np.array([1.0, -2.0])), nn.Parameter(np.array([1.0, -2.0]))
        stale, fresh = nn.Adam([p], lr=0.1), nn.Adam([q], lr=0.1)
        quadratic_loss(p).backward()
        stale.minimize(quadratic_loss(p))
        fresh.minimize(quadratic_loss(q))
        np.testing.assert_array_equal(p.grad, q.grad)
        np.testing.assert_array_equal(stale._v[0], fresh._v[0])

    def test_constant_loss_updates_nothing(self):
        p = nn.Parameter(np.array([1.0, -2.0]))
        optimizer = nn.Adam([p], lr=0.1)
        p.grad = np.array([5.0, 5.0])
        assert optimizer.minimize(nn.Tensor(np.array(7.0)), max_norm=1.0) == 7.0
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        np.testing.assert_array_equal(p.grad, [5.0, 5.0])
        assert optimizer._step == 0
        np.testing.assert_array_equal(optimizer._m[0], 0.0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm_before = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm_before == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients_untouched(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        nn.clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    def test_norm_is_global_across_parameters(self):
        p = nn.Parameter(np.zeros(1))
        q = nn.Parameter(np.zeros(1))
        p.grad = np.array([3.0])
        q.grad = np.array([4.0])
        assert nn.clip_grad_norm([p, q], max_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose([p.grad[0], q.grad[0]], [0.6, 0.8])

    def test_skips_parameters_without_gradient(self):
        p = nn.Parameter(np.zeros(2))
        q = nn.Parameter(np.zeros(2))
        p.grad = np.array([6.0, 8.0])
        assert nn.clip_grad_norm([p, q], max_norm=5.0) == pytest.approx(10.0)
        np.testing.assert_allclose(p.grad, [3.0, 4.0])
        assert q.grad is None

    def test_handles_missing_gradients(self):
        p = nn.Parameter(np.zeros(2))
        assert nn.clip_grad_norm([p], max_norm=1.0) == 0.0
