"""The per-step cell-graph oracle for :class:`repro.nn.LSTM`.

:func:`reference_lstm_forward` runs the LSTM one :func:`cell_step` at a
time on the autograd engine, so every gate, product and mask blend is its
own autograd node, and :func:`stack` joins the top layer's steps.  The
fused kernel in :mod:`repro.nn.recurrent` must produce the same outputs and
the same gradients bit for bit; ``test_lstm_equivalence.py`` compares the
two.

:func:`per_step_run` is the fused loop as it was before it projected all
steps with one stacked matmul: each step's input projection is its own
``x_t @ w_ih.T`` and every step adds ``h @ w_hh.T``.
``test_lstm_loop.py`` checks :meth:`repro.nn.LSTMCell._run` against it:
outputs, tape and gradients, byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor


def cell_step(cell, x, state):
    """One step of ``cell``.  ``x`` is (batch, input_size); ``state`` is ``(h, c)``."""
    h_prev, c_prev = state
    x = x if isinstance(x, Tensor) else Tensor(x)
    gates = x @ cell.weight_ih.transpose() + h_prev @ cell.weight_hh.transpose() + cell.bias
    hs = cell.hidden_size
    i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs:3 * hs].tanh()
    o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


def stack(tensors, axis=0):
    """``np.stack`` of tensors as one autograd node."""
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        for tensor, g in zip(tensors, np.moveaxis(grad, axis, 0)):
            if tensor.requires_grad:
                tensor._accumulate(g)

    return tensors[0]._make_result(out_data, tuple(tensors), backward, "stack")


def initial_state(cell, batch_size):
    """Zero hidden and cell state of ``cell`` for ``batch_size`` rows."""
    shape = (batch_size, cell.hidden_size)
    return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


def reference_lstm_forward(lstm, x, mask=None):
    """Run ``lstm`` over ``x`` through the per-step autograd graph.

    Returns ``(outputs, final_hidden)`` like :meth:`repro.nn.LSTM.forward`;
    here ``final_hidden`` is the top layer's last step node itself.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    batch, time_steps, _ = x.shape
    mask_array = None if mask is None else np.asarray(mask, dtype=np.float64)

    layer_input_steps = [x[:, t, :] for t in range(time_steps)]
    for name in lstm._cell_names:
        cell = getattr(lstm, name)
        h, c = initial_state(cell, batch)
        step_outputs = []
        for t, step in enumerate(layer_input_steps):
            h_new, c_new = cell_step(cell, step, (h, c))
            if mask_array is not None:
                keep = Tensor(mask_array[:, t:t + 1])
                h = h_new * keep + h * (1.0 - keep)
                c = c_new * keep + c * (1.0 - keep)
            else:
                h, c = h_new, c_new
            step_outputs.append(h)
        layer_input_steps = step_outputs

    outputs = stack(layer_input_steps, axis=1)
    return outputs, layer_input_steps[-1]


def per_step_run(cell, steps, mask, tape):
    """Run ``cell`` over a list of ``(batch, input_size)`` step arrays with
    one projection per step, taping unless ``tape`` is None; return the
    list of hidden states."""
    w_ih, w_hh, bias = cell.weight_ih.data, cell.weight_hh.data, cell.bias.data
    hs = cell.hidden_size
    h = c = np.zeros((steps[0].shape[0], hs))
    skip_all = None if mask is None else 1.0 - mask
    hidden = []
    for t, x_t in enumerate(steps):
        gates = x_t @ w_ih.T
        gates += h @ w_hh.T
        gates += bias
        g = np.tanh(gates[:, 2 * hs:3 * hs])
        np.maximum(gates, -60.0, out=gates)
        np.minimum(gates, 60.0, out=gates)
        np.negative(gates, out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        i, f, o = gates[:, 0 * hs:1 * hs], gates[:, 1 * hs:2 * hs], gates[:, 3 * hs:4 * hs]
        c_new = f * c
        c_new += i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if tape is not None:
            tape.append((x_t, h, c, i, f, g, o, tanh_c))
        if mask is not None:
            keep, skip = mask[:, t:t + 1], skip_all[:, t:t + 1]
            h_new *= keep
            h_new += h * skip
            c_new *= keep
            c_new += c * skip
        h, c = h_new, c_new
        hidden.append(h)
    return hidden
