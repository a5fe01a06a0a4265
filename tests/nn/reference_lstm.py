"""The per-step cell-graph oracle for :class:`repro.nn.LSTM`.

:func:`reference_lstm_forward` runs the LSTM one public
:meth:`repro.nn.LSTMCell.forward` step at a time, so every gate, product
and mask blend is its own autograd node.  The fused kernel in
:mod:`repro.nn.recurrent` must produce the same outputs and the same
gradients bit for bit; ``test_lstm_equivalence.py`` compares the two.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor


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
            h_new, c_new = cell(step, (h, c))
            if mask_array is not None:
                keep = Tensor(mask_array[:, t:t + 1])
                h = h_new * keep + h * (1.0 - keep)
                c = c_new * keep + c * (1.0 - keep)
            else:
                h, c = h_new, c_new
            step_outputs.append(h)
        layer_input_steps = step_outputs

    outputs = Tensor.stack(layer_input_steps, axis=1)
    return outputs, layer_input_steps[-1]
