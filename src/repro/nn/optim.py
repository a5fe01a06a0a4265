"""The Adam optimiser and global gradient-norm clipping.

The paper trains WSCCL with Adam at learning rate 3e-4; Adam is therefore the
default everywhere in ``repro.core``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


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
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self):
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba)."""

    def __init__(self, parameters, lr=3e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
