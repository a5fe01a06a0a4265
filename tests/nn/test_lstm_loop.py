"""The LSTM's time loop against its per-step form, byte for byte.

:meth:`repro.nn.LSTMCell._run` projects every step's input with one stacked
matmul (numpy runs it as one gemm per step) and skips the zero state's
recurrent product at t = 0.  ``reference_lstm.per_step_run`` projects each
step on its own and always adds ``h @ w_hh.T``.  Both must give the same
hidden states, the same tape and, through ``LSTMCell._backprop``, the same
parameter and input gradients: same dtype, shape and bytes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lstm import per_step_run

from repro import nn


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _prefix_mask(rng, batch, time_steps):
    lengths = rng.integers(1, time_steps + 1, size=batch)
    return (np.arange(time_steps) < lengths[:, None]).astype(np.float64)


def _gradients(cells, tapes, mask, grads_from_above):
    """Backpropagate the same upstream gradients through ``tapes``, top
    layer first, as ``LSTM.forward``'s backward does; return every
    parameter gradient and the input gradients."""
    for cell in cells:
        for param in cell.parameters():
            param.zero_grad()
    grad_hidden = list(grads_from_above)
    top = len(cells) - 1
    for layer in range(top, -1, -1):
        grad_hidden = cells[layer]._backprop(
            tapes[layer], mask, grad_hidden, True,
            hh_forward_order=mask is None and layer == top)
    return [param.grad.copy() for cell in cells for param in cell.parameters()], grad_hidden


def loop_case(num_layers, batch, time_steps, input_size, hidden_size, masked, seed):
    rng = np.random.default_rng(seed)
    lstm = nn.LSTM(input_size, hidden_size, num_layers=num_layers,
                   rng=np.random.default_rng(rng.integers(2 ** 32)))
    x = rng.normal(size=(batch, time_steps, input_size)) * rng.choice([0.3, 1.0, 4.0])
    mask = _prefix_mask(rng, batch, time_steps) if masked else None
    upstream = [rng.normal(size=(batch, hidden_size)) for _ in range(time_steps)]
    return lstm.cells, x, mask, upstream


@st.composite
def loop_cases(draw):
    return loop_case(
        num_layers=draw(st.integers(1, 2)), batch=draw(st.integers(1, 64)),
        time_steps=draw(st.integers(1, 20)), input_size=draw(st.integers(1, 9)),
        hidden_size=draw(st.integers(1, 9)), masked=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=120, deadline=None)
@given(case=loop_cases())
# The benchmark's (batch, time, input, hidden) shape, masked and unmasked,
# and a lone one-step path.
@example(case=loop_case(1, 32, 12, 48, 32, True, seed=0))
@example(case=loop_case(2, 5, 8, 48, 32, False, seed=1))
@example(case=loop_case(1, 1, 1, 48, 32, False, seed=2))
def test_stacked_loop_matches_the_per_step_loop(case):
    cells, x, mask, upstream = case
    stacked_steps, per_step = x.swapaxes(0, 1), [x[:, t, :] for t in range(x.shape[1])]
    stacked_tapes, per_step_tapes = [], []
    for cell in cells:
        stacked_tapes.append([])
        per_step_tapes.append([])
        stacked_steps = cell._run(stacked_steps, mask, stacked_tapes[-1])
        per_step = per_step_run(cell, per_step, mask, per_step_tapes[-1])
        assert stacked_steps.shape == (len(per_step),) + per_step[0].shape
        for got, want in zip(stacked_steps, per_step):
            assert_same_bits(got, want)
        for got_entry, want_entry in zip(stacked_tapes[-1], per_step_tapes[-1], strict=True):
            for got, want in zip(got_entry, want_entry, strict=True):
                assert_same_bits(np.asarray(got), np.asarray(want))

    stacked_grads, stacked_input = _gradients(cells, stacked_tapes, mask, upstream)
    per_step_grads, per_step_input = _gradients(cells, per_step_tapes, mask, upstream)
    for got, want in zip(stacked_grads, per_step_grads, strict=True):
        assert_same_bits(got, want)
    for got, want in zip(stacked_input, per_step_input, strict=True):
        assert_same_bits(got, want)


@settings(max_examples=60, deadline=None)
@given(case=loop_cases())
def test_untaped_loop_gives_the_taped_bytes(case):
    """Inference runs the same loop with neither tape nor mask."""
    cells, x, mask, _ = case
    untaped, per_step = x.swapaxes(0, 1), [x[:, t, :] for t in range(x.shape[1])]
    for cell in cells:
        untaped = cell._run(untaped, mask, None)
        per_step = per_step_run(cell, per_step, mask, [])
        assert_same_bits(untaped, np.stack(per_step))
