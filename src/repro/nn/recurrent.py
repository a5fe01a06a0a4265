"""The LSTM recurrent layer.

The WSCCL temporal path encoder (paper §IV-C, Eq. 7), PathRank and the
DeepGTT, HMTRL and spatial-encoder baselines run this LSTM over
``(batch, time, features)`` sequences.  :class:`LSTMCell` holds one layer's
parameters.  :class:`LSTM` runs the whole sequence as one autograd node: a
numpy loop over time with a per-step tape, and a hand-written
backpropagation through time.  Both repeat the arithmetic and summation
order of the per-step cell graph in ``tests/nn/reference_lstm.py``, so
outputs and gradients are bit-identical to it.

:meth:`LSTMCell._run` is the one time loop.  It takes the layer's whole
``(time, batch, features)`` input and projects every step with one stacked
``np.matmul``, which numpy runs as one gemm per step, so each step's
projection has the bits of its own ``x_t @ w_ih.T``; one gemm over all
``batch * time`` rows would not.  Each step then works in place on its
``(batch, 4 * hidden)`` gate block: the recurrent gemm (skipped at t = 0,
where the zero state would add +0.0 before the bias) and the bias sum into
it, one clipped sigmoid covers it whole (the cell gate's tanh is taken
first), and the tape keeps the input, forget and output gates as views of
it.  The clip is an in-place ``np.maximum`` then ``np.minimum``: the values
of ``np.clip``, NaN included, without its Python wrapper.  The hidden states
are written into one ``(time, batch, hidden)`` array, the next layer's
input.

Inference calls :meth:`LSTMCell._run` with neither a tape nor a mask: see
``repro.core.encoder.LSTMPathEncoder._representations`` for why that is exact.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_integer
from . import init
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["LSTMCell", "LSTM"]

# The loop's constants as 0-d arrays: numpy takes them with less per-call
# work than Python floats, and computes the same float64 values.
_CLIP_LOW, _CLIP_HIGH, _ONE = np.array(-60.0), np.array(60.0), np.array(1.0)


class LSTMCell(Module):
    """One LSTM layer's parameters, i/f/g/o gates, and its fused time loop."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        check_integer("input_size", input_size, low=1)
        check_integer("hidden_size", hidden_size, low=1)
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
        """Run over the ``(time, batch, input_size)`` array ``steps``, taping
        unless ``tape`` is None; return the ``(time, batch, hidden_size)``
        hidden states."""
        w_hh_t = self.weight_hh.data.T
        hs = self.hidden_size
        # One stacked matmul, which numpy runs as one gemm per step: each
        # step's projection has the bits of its own ``steps[t] @ w_ih.T``.
        projected = np.matmul(steps, self.weight_ih.data.T)
        hidden = np.empty(projected.shape[:2] + (hs,))
        # The bias as full rows: adding a same-shape block costs less per
        # step than broadcasting the vector, and adds the same numbers.
        bias = np.empty_like(projected[0])
        bias[...] = self.bias.data
        h = c = np.zeros((steps.shape[1], hs))
        skip_all = None if mask is None else 1.0 - mask
        # Each step's gate block and its input, forget, cell and output
        # slices, and the step's row of ``hidden``, come out of one zip.
        blocks = (projected[..., 0 * hs:1 * hs], projected[..., 1 * hs:2 * hs],
                  projected[..., 2 * hs:3 * hs], projected[..., 3 * hs:4 * hs])
        for t, (gates, i, f, g_pre, o, h_new) in enumerate(zip(projected, *blocks, hidden)):
            if t:
                # At t = 0 the zero state's product would add +0.0, which
                # the bias sum then absorbs.
                gates += h @ w_hh_t
            gates += bias
            g = np.tanh(g_pre)
            # Tensor.sigmoid's expression, 1 / (1 + exp(-clip(x))), in place
            # over the whole block, so ``i``, ``f`` and ``o`` are the gates;
            # the cell slice's sigmoid goes unused.
            np.maximum(gates, _CLIP_LOW, out=gates)
            np.minimum(gates, _CLIP_HIGH, out=gates)
            np.negative(gates, out=gates)
            np.exp(gates, out=gates)
            gates += _ONE
            np.divide(_ONE, gates, out=gates)
            c_new = f * c
            c_new += i * g
            tanh_c = np.tanh(c_new)
            np.multiply(o, tanh_c, out=h_new)
            if tape is not None:
                tape.append((steps[t], h, c, i, f, g, o, tanh_c))
            if mask is not None:
                keep, skip = mask[:, t:t + 1], skip_all[:, t:t + 1]
                h_new *= keep
                h_new += h * skip
                c_new *= keep
                c_new += c * skip
            h, c = h_new, c_new
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
        check_integer("num_layers", num_layers, low=1)  # the cells check the other two
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
        steps = x.data.swapaxes(0, 1)
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

        outputs = x._make_result(np.ascontiguousarray(steps.swapaxes(0, 1)), parents,
                                 backward, "lstm")
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
