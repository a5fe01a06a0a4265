"""The LSTM recurrent layer.

The WSCCL temporal path encoder (paper §IV-C, Eq. 7), PathRank and the
DeepGTT, HMTRL and spatial-encoder baselines run this LSTM over
``(batch, time, features)`` sequences.  :class:`LSTMCell` holds one layer's
parameters.  :class:`LSTM` runs the whole sequence as one autograd node: a
numpy loop over time with a per-step tape, and a hand-written
backpropagation through time.  Both repeat the arithmetic and summation
order of the per-step cell graph in ``tests/nn/reference_lstm.py``, so
outputs and gradients are bit-identical to it; every gemm stays per step for
that reason.  Each step works in place on one ``(batch, 4 * hidden)`` gate
block: the gemms and the bias sum into it, one clipped sigmoid covers it
whole (the cell gate's tanh is taken first), and the tape keeps the input,
forget and output gates as views of it.  The clip is an in-place
``np.maximum`` then ``np.minimum``: the values of ``np.clip``, NaN included,
without its Python wrapper.

Inference (the temporal path encoder's ``encode``) calls
:meth:`LSTMCell._run` with neither a tape nor a mask.  The mask only blends
a padded step's state forward, and with a prefix mask every padded step
comes after the path's last real one, where the masked mean ignores it; on a
real step the blend ``h_new * 1 + h * 0`` is ``h_new`` up to the sign of an
exact zero.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """One LSTM layer's parameters, i/f/g/o gates, and its fused time loop."""

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

    def _run(self, steps, mask, tape):
        """Run over ``(batch, input_size)`` step arrays, taping unless ``tape`` is None."""
        w_ih, w_hh, bias = self.weight_ih.data, self.weight_hh.data, self.bias.data
        hs = self.hidden_size
        h = c = np.zeros((steps[0].shape[0], hs))
        skip_all = None if mask is None else 1.0 - mask
        hidden = []
        for t, x_t in enumerate(steps):
            gates = x_t @ w_ih.T
            gates += h @ w_hh.T
            gates += bias
            g = np.tanh(gates[:, 2 * hs:3 * hs])
            # Tensor.sigmoid's expression, 1 / (1 + exp(-clip(x))), in place
            # over the whole block; the cell slice's sigmoid goes unused.
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

    def _backprop(self, tape, mask, grad_hidden, need_input_grad, hh_forward_order):
        """Backpropagate through time; ``grad_hidden[t]`` comes from above.

        Sums run in the cell graph's order (a missing term is an exact zero)
        and each parameter's grad gains one term per step, as in the engine.
        Returns the per-step input gradients if ``need_input_grad``.
        """
        w_ih, w_hh = self.weight_ih.data, self.weight_hh.data
        grad_input = [None] * len(tape)
        terms = {self.bias: [], self.weight_ih: [], self.weight_hh: []}
        keep, skip, dh_rec, dh_carry, dc = 1.0, 0.0, 0.0, 0.0, 0.0
        for t in range(len(tape) - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = tape[t]
            if mask is not None:
                keep, skip = mask[:, t:t + 1], 1.0 - mask[:, t:t + 1]
            dh = grad_hidden[t] + dh_rec + dh_carry
            dh_new, dh_carry = dh * keep, dh * skip
            dc_new = dh_new * o * (1.0 - tanh_c ** 2) + dc * keep
            dgates = np.concatenate([
                dc_new * g * i * (1.0 - i),
                dc_new * c_prev * f * (1.0 - f),
                dc_new * i * (1.0 - g ** 2),
                dh_new * tanh_c * o * (1.0 - o),
            ], axis=1)
            terms[self.bias].append(dgates.sum(axis=0))
            terms[self.weight_ih].append((x_t.T @ dgates).T)
            terms[self.weight_hh].append((h_prev.T @ dgates).T)
            if need_input_grad:
                grad_input[t] = dgates @ w_ih
            dh_rec = dgates @ w_hh
            dc = dc_new * f + dc * skip
        if hh_forward_order:
            terms[self.weight_hh].reverse()
        for param, param_terms in terms.items():
            if param.requires_grad:
                for term in param_terms:
                    param._accumulate(term)
        return grad_input if need_input_grad else None


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
        self._cell_names = [f"cell{layer}" for layer in range(num_layers)]
        for layer, name in enumerate(self._cell_names):
            in_size = input_size if layer == 0 else hidden_size
            setattr(self, name, LSTMCell(in_size, hidden_size, rng=rng))

    @property
    def cells(self):
        """The layers' :class:`LSTMCell` modules, bottom first."""
        return [getattr(self, name) for name in self._cell_names]

    def forward(self, x, mask=None):
        """Run over ``x`` of shape ``(batch, time >= 1, input_size)``.

        ``mask`` is an optional ``(batch, time)`` array of 0/1 (or bool), 1 on
        valid steps; padded steps carry the state forward unchanged, so
        variable-length paths can share a batch.  Returns the top layer's
        hidden state at every step, ``(batch, time, hidden_size)`` (the
        paper's spatio-temporal edge representations), and its final valid
        hidden state ``outputs[:, -1, :]``.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        mask = self._check_inputs(x, mask)
        cells = self.cells
        parents = (x,) + tuple(p for cell in cells
                               for p in (cell.weight_ih, cell.weight_hh, cell.bias))
        record = is_grad_enabled() and any(p.requires_grad for p in parents)

        tapes = [[] if record else None for _ in cells]
        steps = [x.data[:, t, :] for t in range(x.shape[1])]
        for cell, tape in zip(cells, tapes):
            steps = cell._run(steps, mask, tape)

        def backward(grad):
            grad_hidden = [grad[:, t, :] for t in range(len(steps))]
            top = len(cells) - 1
            for layer in range(top, -1, -1):
                # The engine's graph walk reaches the top layer of an
                # unmasked run in time order, so its W_hh terms sum forwards.
                grad_hidden = cells[layer]._backprop(
                    tapes[layer], mask, grad_hidden, layer > 0 or x.requires_grad,
                    hh_forward_order=mask is None and layer == top)
            if x.requires_grad:
                x._accumulate(np.stack(grad_hidden, axis=1))

        outputs = x._make_result(np.stack(steps, axis=1), parents, backward, "lstm")
        return outputs, outputs[:, -1, :]

    def _check_inputs(self, x, mask):
        """Validate ``x`` and ``mask``; return the mask as float64 or None."""
        if x.ndim != 3 or x.shape[1] < 1 or x.shape[2] != self.input_size:
            raise ValueError(f"x must have shape (batch, time >= 1, {self.input_size}), "
                             f"got {x.shape}")
        if mask is None:
            return None
        mask = np.asarray(mask)
        if mask.shape != x.shape[:2]:
            raise ValueError(f"mask must have shape (batch, time) = {x.shape[:2]}, "
                             f"got {mask.shape}")
        mask = mask.astype(np.float64)
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        return mask
