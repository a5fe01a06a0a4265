"""Tests for Module / Parameter."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


class TwoLayer(nn.Module):
    def __init__(self):
        super().__init__()
        self.first = nn.Linear(4, 8, rng=np.random.default_rng(0))
        self.second = nn.Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestParameterRegistration:
    def test_parameters_are_collected_recursively(self):
        model = TwoLayer()
        params = list(model.parameters())
        # 2 weights + 2 biases
        assert len(params) == 4

    def test_named_parameters_have_dotted_paths(self):
        model = TwoLayer()
        names = dict(model.named_parameters()).keys()
        assert "first.weight" in names
        assert "second.bias" in names

    def test_parameters_are_float64_trainable_leaves(self):
        parameter = nn.Parameter(np.arange(3))
        assert parameter.dtype == np.float64
        assert parameter.requires_grad


class TestStateDict:
    def test_round_trip(self):
        model_a = TwoLayer()
        model_b = TwoLayer()
        # Make them differ first.
        for p in model_b.parameters():
            p.data = p.data + 1.0
        model_b.load_state_dict(model_a.state_dict())
        for (name_a, pa), (name_b, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(pa.data, pb.data)

    def test_state_dict_is_a_copy(self):
        model = TwoLayer()
        state = model.state_dict()
        state["first.weight"][:] = 0.0
        assert not np.allclose(next(model.parameters()).data, 0.0)

    def test_missing_key_raises(self):
        model = TwoLayer()
        state = model.state_dict()
        del state["first.weight"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = TwoLayer()
        state = model.state_dict()
        state["first.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_converts_to_float64_copies(self):
        model = TwoLayer()
        state = {name: np.ones(value.shape, dtype=np.int64)
                 for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        weight = model.first.weight.data
        assert weight.dtype == np.float64
        np.testing.assert_array_equal(weight, 1.0)
        state["first.weight"][:] = 7
        np.testing.assert_array_equal(model.first.weight.data, 1.0)

    def test_lstm_state_dict_names_every_cell(self):
        lstm = nn.LSTM(2, 3, num_layers=2)
        assert sorted(lstm.state_dict()) == [
            f"cell{layer}.{name}" for layer in (0, 1)
            for name in ("bias", "weight_hh", "weight_ih")]
