"""Tests for feed-forward layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_matches_manual_affine(self, rng):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(1))
        x = rng.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected)

    def test_no_bias_option(self):
        layer = nn.Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_three_dimensional_input(self, rng):
        layer = nn.Linear(6, 2, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(rng.normal(size=(2, 5, 6))))
        assert out.shape == (2, 5, 2)

    def test_gradients_flow_to_weights(self):
        layer = nn.Linear(3, 1, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0])


class TestEmbedding:
    def test_lookup_shape(self):
        table = nn.Embedding(10, 4, rng=np.random.default_rng(0))
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_lookup_values_match_rows(self):
        table = nn.Embedding(5, 3, rng=np.random.default_rng(0))
        out = table(np.array([2]))
        np.testing.assert_allclose(out.data[0], table.weight.data[2])

    def test_out_of_range_raises(self):
        table = nn.Embedding(5, 3)
        with pytest.raises(IndexError):
            table(np.array([7]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_gradient_accumulates_for_repeated_indices(self):
        table = nn.Embedding(4, 2, rng=np.random.default_rng(0))
        out = table(np.array([1, 1, 1])).sum()
        out.backward()
        np.testing.assert_allclose(table.weight.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(table.weight.grad[0], [0.0, 0.0])
