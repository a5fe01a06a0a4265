"""The LSTM recurrent layer.

The WSCCL temporal path encoder (paper §IV-C, Eq. 7) feeds the concatenated
spatio-temporal edge features into a (possibly multi-layer) LSTM, and the
PathRank baseline reuses that encoder.  The LSTM is implemented here on top
of the autograd engine, processing sequences of shape
``(batch, time, features)``.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM cell with the standard i/f/g/o gate parameterisation."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates stacked as [input, forget, cell, output] along the first axis.
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        # Forget-gate bias of 1.0 is the usual trick for gradient flow.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x, state):
        """One step.  ``x`` is (batch, input_size); ``state`` is ``(h, c)``."""
        h_prev, c_prev = state
        x = x if isinstance(x, Tensor) else Tensor(x)
        gates = x @ self.weight_ih.transpose() + h_prev @ self.weight_hh.transpose() + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs:3 * hs].tanh()
        o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size):
        """Zero hidden and cell state."""
        shape = (batch_size, self.hidden_size)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


class LSTM(Module):
    """Multi-layer LSTM over ``(batch, time, features)`` sequences."""

    def __init__(self, input_size, hidden_size, num_layers=1, rng=None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self._cell_names = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            name = f"cell{layer}"
            setattr(self, name, LSTMCell(in_size, hidden_size, rng=rng))
            self._cell_names.append(name)

    def forward(self, x, mask=None):
        """Run the LSTM over a batch of sequences.

        Parameters
        ----------
        x:
            Tensor of shape ``(batch, time, features)``.
        mask:
            Optional numpy array of shape ``(batch, time)`` with 1 on valid
            steps and 0 on padding.  Padded steps carry the previous state
            forward so variable-length paths can share a batch.

        Returns
        -------
        outputs:
            Tensor of shape ``(batch, time, hidden_size)`` — the top layer's
            hidden state at every step (the paper's spatio-temporal edge
            representations).
        final_hidden:
            Tensor of shape ``(batch, hidden_size)`` — the top layer's final
            valid hidden state.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        batch, time_steps, _ = x.shape
        mask_array = None if mask is None else np.asarray(mask, dtype=np.float64)

        layer_input_steps = [x[:, t, :] for t in range(time_steps)]
        for name in self._cell_names:
            cell = getattr(self, name)
            h, c = cell.initial_state(batch)
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
        final_hidden = layer_input_steps[-1]
        return outputs, final_hidden

