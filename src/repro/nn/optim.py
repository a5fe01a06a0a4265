"""The Adam optimiser, global gradient-norm clipping and the one update step.

The paper trains WSCCL with Adam at learning rate 3e-4; Adam is therefore the
default everywhere in ``repro.core``.  Every training loop in the package, the
baselines' included, updates its parameters through :meth:`Optimizer.minimize`.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_real

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


def clip_grad_norm(parameters, max_norm):
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, which training loops can log.
    """
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in parameters:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        # A NaN rate passes ``lr <= 0`` and turns every parameter NaN.
        self.lr = check_real("lr", lr, above=0)

    def zero_grad(self):
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        raise NotImplementedError

    def minimize(self, loss, max_norm=None):
        """One update on ``loss``; returns its value.

        Clears the gradients, backpropagates, clips their global norm to
        ``max_norm`` when one is given, and steps.  A loss with no path to a
        parameter (a constant) updates nothing.
        """
        if loss.requires_grad:
            self.zero_grad()
            loss.backward()
            if max_norm is not None:
                clip_grad_norm(self.parameters, max_norm)
            self.step()
        return float(loss.data)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with its default betas and epsilon."""

    def __init__(self, parameters, lr=3e-4):
        super().__init__(parameters, lr)
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step += 1
        bias_correction1 = 1.0 - _BETA1 ** self._step
        bias_correction2 = 1.0 - _BETA2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
