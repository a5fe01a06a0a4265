"""Equivalence suite: the fused LSTM kernel vs the per-step cell graph.

:meth:`repro.nn.LSTM.forward` is one autograd node with a hand-written
backward; ``reference_lstm.reference_lstm_forward`` builds the same
computation one autograd cell step at a time.  Outputs, the final hidden
state, every parameter gradient and the input gradient must agree bit for
bit: same dtype, same shape and the same bytes, so signs of zero count as
they do in the goldens' JSON and sha256.  That is what keeps the golden
tables byte-identical.  The graph-size guards pin what the fusion buys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference_wsc_graph
from reference_lstm import reference_lstm_forward

from repro import nn
from repro.core import WSCTrainer, trainer
from repro.core.encoder import pad_paths
from repro.datasets import TemporalPath


def _fused(lstm, x, mask):
    return lstm(x, mask=mask)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _prefix_mask(rng, batch, time_steps):
    lengths = rng.integers(1, time_steps + 1, size=batch)
    paths = [TemporalPath(path=range(length), departure_time=0) for length in lengths]
    _, mask = pad_paths(paths)
    # pad_paths sizes the mask to the longest path; keep the drawn width.
    return np.pad(mask, ((0, 0), (0, time_steps - mask.shape[1])))


def _run(forward, lstm, x, mask, x_requires_grad, weights):
    """Forward, a loss on ``outputs`` and ``final_hidden``, and backward."""
    for param in lstm.parameters():
        param.zero_grad()
    inputs = nn.Tensor(x.copy(), requires_grad=x_requires_grad)
    outputs, final = forward(lstm, inputs, mask)
    out_weights, final_weights = weights
    loss = (outputs * nn.Tensor(out_weights)).sum() + (final * nn.Tensor(final_weights)).sum()
    loss.backward()
    grads = [param.grad.copy() for param in lstm.parameters()]
    return outputs.data, final.data, grads, inputs.grad


def lstm_case(num_layers, batch, time_steps, input_size, hidden_size, mask_kind,
              x_requires_grad, seed):
    """An LSTM, its input, mask and loss weights, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lstm = nn.LSTM(input_size, hidden_size, num_layers=num_layers,
                   rng=np.random.default_rng(rng.integers(2 ** 32)))
    x = rng.normal(size=(batch, time_steps, input_size)) * rng.choice([0.3, 1.0, 4.0])
    if mask_kind == "none":
        mask = None
    elif mask_kind == "prefix":
        mask = _prefix_mask(rng, batch, time_steps)
    else:
        mask = rng.integers(0, 2, size=(batch, time_steps)).astype(np.float64)
    weights = (rng.normal(size=(batch, time_steps, hidden_size)),
               rng.normal(size=(batch, hidden_size)))
    return lstm, x, mask, x_requires_grad, weights


@st.composite
def lstm_cases(draw):
    return lstm_case(
        num_layers=draw(st.integers(1, 3)), batch=draw(st.integers(1, 6)),
        time_steps=draw(st.integers(1, 7)), input_size=draw(st.integers(1, 6)),
        hidden_size=draw(st.integers(1, 6)),
        mask_kind=draw(st.sampled_from(["none", "prefix", "arbitrary"])),
        x_requires_grad=draw(st.booleans()), seed=draw(st.integers(0, 2 ** 32 - 1)))


# The benchmark's (batch, time, input, hidden) shape and a single step of it:
# hidden 32 gives 4 * hidden = 128-wide gate rows, which the drawn sizes
# never reach.
SUITE_SHAPE = lstm_case(2, 32, 12, 48, 32, "prefix", True, seed=0)
ONE_STEP = lstm_case(1, 1, 1, 48, 32, "prefix", True, seed=1)


class TestFusedMatchesCellGraph:
    @settings(max_examples=150, deadline=None)
    @given(case=lstm_cases())
    @example(case=SUITE_SHAPE)
    @example(case=ONE_STEP)
    def test_outputs_and_gradients_bitwise(self, case):
        lstm, x, mask, x_requires_grad, weights = case
        fused = _run(_fused, lstm, x, mask, x_requires_grad, weights)
        reference = _run(reference_lstm_forward, lstm, x, mask, x_requires_grad, weights)
        assert_same_bits(fused[0], reference[0])
        assert_same_bits(fused[1], reference[1])
        assert len(fused[2]) == len(reference[2])
        for fused_grad, reference_grad in zip(fused[2], reference[2]):
            assert_same_bits(fused_grad, reference_grad)
        if x_requires_grad:
            assert_same_bits(fused[3], reference[3])
        else:
            assert fused[3] is None and reference[3] is None

    @settings(max_examples=50, deadline=None)
    @given(case=lstm_cases())
    @example(case=SUITE_SHAPE)
    @example(case=ONE_STEP)
    def test_no_grad_forward_gives_the_taped_bytes(self, case):
        """The untaped loop that serves ``encode`` is the taped one, bit for bit."""
        lstm, x, mask, _, _ = case
        taped = lstm(nn.Tensor(x, requires_grad=True), mask=mask)
        with nn.no_grad():
            untaped = lstm(nn.Tensor(x), mask=mask)
        for untaped_array, taped_array in zip(untaped, taped):
            assert_same_bits(untaped_array.data, taped_array.data)

    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_two_calls_into_one_loss_accumulate_alike(self, rng, masked):
        """Parameter grads gain one term per step, so a second forward into
        the same loss sums onto the first exactly as the cell graph does."""
        lstm = nn.LSTM(3, 4, num_layers=2, rng=np.random.default_rng(5))
        x = rng.normal(size=(3, 5, 3))
        mask = _prefix_mask(rng, 3, 5) if masked else None
        results = []
        for forward in (_fused, reference_lstm_forward):
            for param in lstm.parameters():
                param.zero_grad()
            inputs = nn.Tensor(x, requires_grad=True)
            first, _ = forward(lstm, inputs * 2.0, mask)
            second, _ = forward(lstm, inputs[:, :4, :], None if mask is None else mask[:, :4])
            (first.sum() + (second * second).sum()).backward()
            results.append([param.grad for param in lstm.parameters()] + [inputs.grad])
        for fused_grad, reference_grad in zip(*results):
            assert_same_bits(fused_grad, reference_grad)


def _graph_size(tensor):
    """Number of autograd nodes reachable from ``tensor``."""
    seen, stack = set(), [tensor]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGraphSize:
    def test_one_node_whatever_the_length(self, rng):
        lstm = nn.LSTM(3, 4, num_layers=2, rng=np.random.default_rng(0))
        sizes = []
        for time_steps in (1, 20):
            x = nn.Tensor(rng.normal(size=(2, time_steps, 3)), requires_grad=True)
            outputs, _ = lstm(x, mask=np.ones((2, time_steps)))
            sizes.append(_graph_size(outputs))
        # The LSTM node, x and three parameters per layer.
        assert sizes == [8, 8]

    def test_no_grad_records_nothing(self, rng):
        lstm = nn.LSTM(3, 4, rng=np.random.default_rng(0))
        x = nn.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        with nn.no_grad():
            outputs, final = lstm(x, mask=np.ones((2, 5)))
        for tensor in (outputs, final):
            assert tensor._backward is None
            assert tensor._parents == ()
            assert not tensor.requires_grad

    def test_train_step_graph_halves_and_lands_on_the_same_weights(
            self, tiny_city, tiny_config, shared_resources, monkeypatch):
        """A tiny WSC train step through the fused LSTM and the objective node
        builds at most a tenth of the graph of the per-step cell path under
        the Tensor-composed objective, and updates every weight to the same
        bits."""
        batch = list(tiny_city.unlabeled)[:6]
        labeler = tiny_city.unlabeled.weak_labeler
        losses = []

        def step(loss_fn):
            def recording_loss(*args, **kwargs):
                losses.append(loss_fn(*args, **kwargs))
                return losses[-1]

            monkeypatch.setattr(trainer, "combined_wsc_loss", recording_loss)
            model = shared_resources.new_encoder()
            WSCTrainer(model, seed=7).train_step(batch, labeler)
            return _graph_size(losses[-1]), model.state_dict()

        fused_size, fused_state = step(trainer.combined_wsc_loss)
        monkeypatch.setattr(nn.LSTM, "forward", reference_lstm_forward)
        reference_size, reference_state = step(reference_wsc_graph.combined_wsc_loss)
        assert fused_size <= 0.1 * reference_size
        assert fused_state.keys() == reference_state.keys()
        for name, value in fused_state.items():
            assert_same_bits(value, reference_state[name])
