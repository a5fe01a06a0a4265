"""Tests for the LSTM recurrent layer."""

from __future__ import annotations

import numpy as np
import pytest
from reference_lstm import cell_step, initial_state

from repro import nn


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def numpy_lstm_step(cell, x, h, c):
    """One LSTM step written out with numpy, gates stacked as [i, f, g, o]."""
    gates = x @ cell.weight_ih.data.T + h @ cell.weight_hh.data.T + cell.bias.data
    i, f, g, o = np.split(gates, 4, axis=1)
    c_new = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
    return _sigmoid(o) * np.tanh(c_new), c_new


class TestLSTMCell:
    """The oracle's per-step cell on an :class:`nn.LSTMCell`'s parameters."""

    def test_step_shapes(self):
        cell = nn.LSTMCell(5, 7, rng=np.random.default_rng(0))
        h, c = initial_state(cell, 3)
        h_new, c_new = cell_step(cell, nn.Tensor(np.ones((3, 5))), (h, c))
        assert h_new.shape == (3, 7)
        assert c_new.shape == (3, 7)

    def test_state_changes_with_input(self, rng):
        cell = nn.LSTMCell(4, 4, rng=np.random.default_rng(0))
        state = initial_state(cell, 2)
        h1, _ = cell_step(cell, nn.Tensor(rng.normal(size=(2, 4))), state)
        h2, _ = cell_step(cell, nn.Tensor(rng.normal(size=(2, 4))), state)
        assert not np.allclose(h1.data, h2.data)

    @pytest.mark.parametrize("batch,input_size,hidden_size", [(1, 3, 2), (4, 5, 7), (2, 1, 3)])
    def test_step_matches_gate_equations(self, rng, batch, input_size, hidden_size):
        cell = nn.LSTMCell(input_size, hidden_size, rng=np.random.default_rng(1))
        x = rng.normal(size=(batch, input_size))
        h = rng.normal(size=(batch, hidden_size))
        c = rng.normal(size=(batch, hidden_size))
        h_new, c_new = cell_step(cell, nn.Tensor(x), (nn.Tensor(h), nn.Tensor(c)))
        expected_h, expected_c = numpy_lstm_step(cell, x, h, c)
        np.testing.assert_allclose(h_new.data, expected_h, atol=1e-12)
        np.testing.assert_allclose(c_new.data, expected_c, atol=1e-12)

    def test_forget_gate_bias_starts_at_one(self):
        cell = nn.LSTMCell(2, 3)
        np.testing.assert_array_equal(cell.bias.data, [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0])


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = nn.LSTM(input_size=6, hidden_size=8, num_layers=2, rng=np.random.default_rng(0))
        x = nn.Tensor(rng.normal(size=(3, 5, 6)))
        outputs, final = lstm(x)
        assert outputs.shape == (3, 5, 8)
        assert final.shape == (3, 8)

    def test_mask_freezes_state_on_padding(self, rng):
        lstm = nn.LSTM(input_size=3, hidden_size=4, rng=np.random.default_rng(0))
        x = rng.normal(size=(1, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        outputs, _ = lstm(nn.Tensor(x), mask=mask)
        # Hidden state on padded steps is the last valid hidden state, bit for bit.
        np.testing.assert_array_equal(outputs.data[0, 2], outputs.data[0, 1])
        np.testing.assert_array_equal(outputs.data[0, 3], outputs.data[0, 1])

    def test_variable_length_equivalence(self, rng):
        """A short sequence padded inside a batch gives the same final state
        as running it alone."""
        lstm = nn.LSTM(input_size=3, hidden_size=5, rng=np.random.default_rng(0))
        short = rng.normal(size=(1, 2, 3))
        padded = np.concatenate([short, np.zeros((1, 2, 3))], axis=1)
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])

        alone_outputs, alone_final = lstm(nn.Tensor(short))
        padded_outputs, padded_final = lstm(nn.Tensor(padded), mask=mask)
        np.testing.assert_array_equal(alone_final.data, padded_final.data)

    def test_gradients_reach_parameters(self, rng):
        lstm = nn.LSTM(input_size=2, hidden_size=3, rng=np.random.default_rng(0))
        x = nn.Tensor(rng.normal(size=(2, 4, 2)))
        outputs, final = lstm(x)
        final.sum().backward()
        grads = [p.grad for p in lstm.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            nn.LSTM(4, 4, num_layers=0)

    @pytest.mark.parametrize("bad", [0, -2, 1.5, 4.0, True, "4", None])
    @pytest.mark.parametrize("name", ["input_size", "hidden_size", "num_layers"])
    def test_rejects_sizes_that_are_not_integers_of_at_least_one(self, name, bad):
        # LSTM(4, 0) and LSTM(0, 4) used to construct, and num_layers=1.5
        # failed with a TypeError inside range().
        sizes = {"input_size": 4, "hidden_size": 4, "num_layers": 1, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            nn.LSTM(**sizes)
        if name != "num_layers":
            sizes.pop("num_layers")
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                nn.LSTMCell(**sizes)

    def test_accepts_numpy_integer_sizes(self):
        lstm = nn.LSTM(np.int64(3), np.int32(2), num_layers=np.int64(2))
        assert len(lstm.cells) == 2

    def test_stacked_layers_chain_cells(self, rng):
        """Layer 2 runs its cell over layer 1's hidden states (Eq. 7, stacked)."""
        lstm = nn.LSTM(input_size=3, hidden_size=4, num_layers=2, rng=np.random.default_rng(2))
        x = rng.normal(size=(2, 3, 3))
        outputs, final = lstm(nn.Tensor(x))

        layer_input = [x[:, t, :] for t in range(3)]
        for cell in (lstm.cell0, lstm.cell1):
            h = c = np.zeros((2, 4))
            steps = []
            for step in layer_input:
                h, c = numpy_lstm_step(cell, step, h, c)
                steps.append(h)
            layer_input = steps
        np.testing.assert_allclose(outputs.data, np.stack(layer_input, axis=1), atol=1e-12)
        np.testing.assert_allclose(final.data, layer_input[-1], atol=1e-12)

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_input_gradient_matches_finite_differences(self, rng, num_layers, masked):
        lstm = nn.LSTM(input_size=2, hidden_size=3, num_layers=num_layers,
                       rng=np.random.default_rng(3))
        x = rng.normal(size=(2, 3, 2))
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]) if masked else None
        weights = rng.normal(size=(2, 3, 3))

        def loss(inputs):
            outputs, _ = lstm(inputs, mask=mask)
            return (outputs * nn.Tensor(weights)).sum()

        inputs = nn.Tensor(x.copy(), requires_grad=True)
        loss(inputs).backward()

        eps = 1e-6
        numeric = np.zeros_like(x)
        for index in np.ndindex(*x.shape):
            shifted = x.copy()
            shifted[index] += eps
            upper = float(loss(nn.Tensor(shifted)).data)
            shifted[index] -= 2 * eps
            lower = float(loss(nn.Tensor(shifted)).data)
            numeric[index] = (upper - lower) / (2 * eps)
        np.testing.assert_allclose(inputs.grad, numeric, rtol=1e-4, atol=1e-7)
        if masked:
            # Padded steps of the short sequence feed nothing forward.
            np.testing.assert_array_equal(inputs.grad[1, 1:], 0.0)


class TestLSTMRejectsBadInput:
    """Bad shapes and masks raise a ValueError naming the argument, instead
    of a deep numpy error or a silent broadcast."""

    @pytest.fixture()
    def lstm(self):
        return nn.LSTM(input_size=3, hidden_size=4, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5, 4), (2, 0, 3)],
                             ids=["2d", "wrong-width", "no-steps"])
    def test_bad_x_shape(self, lstm, shape):
        with pytest.raises(ValueError, match="x must have shape"):
            lstm(nn.Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("mask", [np.ones((2, 6)), np.ones((1, 5)), np.ones(5)],
                             ids=["too-long", "broadcast-batch", "1d"])
    def test_bad_mask_shape(self, lstm, mask):
        with pytest.raises(ValueError, match="mask must have shape"):
            lstm(nn.Tensor(np.zeros((2, 5, 3))), mask=mask)

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_non_binary_mask(self, lstm, value):
        mask = np.ones((2, 5))
        mask[1, 3] = value
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            lstm(nn.Tensor(np.zeros((2, 5, 3))), mask=mask)

    def test_bool_mask_matches_float_mask(self, lstm, rng):
        x = nn.Tensor(rng.normal(size=(2, 4, 3)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        outputs, _ = lstm(x, mask=mask)
        expected, _ = lstm(x, mask=mask.astype(np.float64))
        np.testing.assert_array_equal(outputs.data, expected.data)
