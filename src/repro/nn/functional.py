"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These mirror the subset of ``torch.nn.functional`` that the WSCCL model and
its baselines use: log-softmax, cosine similarity, common losses and
a handful of numerically-stable helpers used by the contrastive objectives.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "EXCLUDED_BIAS",
    "log_softmax",
    "cosine_similarity",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "logsumexp",
    "normalize",
    "softplus",
    "masked_mean",
]


#: Additive bias that excludes a position from a softmax or log-sum-exp:
#: after the max-shift, ``exp(x - 1e9 - max)`` underflows to exactly 0, so
#: excluded entries contribute neither value nor gradient.  Used by the
#: contrastive losses' masked reductions.
EXCLUDED_BIAS = -1e9


def log_softmax(x, axis=-1):
    """Numerically stable log-softmax along ``axis``."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def logsumexp(x, axis=-1, keepdims=False):
    """Stable log-sum-exp used by the contrastive denominators."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    maxes = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - maxes).exp().sum(axis=axis, keepdims=True).log() + maxes
    if not keepdims:
        out = out.reshape(tuple(s for i, s in enumerate(out.shape) if i != (axis % x.ndim)))
    return out


def normalize(x, axis=-1, eps=1e-12):
    """L2-normalise ``x`` along ``axis``."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    norm = (x * x).sum(axis=axis, keepdims=True) ** 0.5
    return x / (norm + eps)


def softplus(x):
    """``log(1 + exp(x))``; a caller whose ``x`` can overflow clips it first."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    return (x.exp() + 1.0).log()


def masked_mean(x, mask):
    """Mean of ``(B, T, D)`` steps over the valid ones of a ``(B, T)`` 0/1 mask.

    A row with no valid step averages to zero.
    """
    counts = Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
    return (x * Tensor(mask[:, :, None])).sum(axis=1) / counts


def cosine_similarity(a, b, axis=-1, eps=1e-12):
    """Cosine similarity between two tensors along ``axis``.

    This is the ``sim``/``s`` function of the paper's Eq. 10 and Eq. 11.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    dot = (a * b).sum(axis=axis)
    norm_a = ((a * a).sum(axis=axis) + eps) ** 0.5
    norm_b = ((b * b).sum(axis=axis) + eps) ** 0.5
    return dot / (norm_a * norm_b)


def mse_loss(prediction, target):
    """Mean squared error."""
    prediction = prediction if isinstance(prediction, Tensor) else Tensor(prediction)
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits, targets):
    """BCE on raw logits, stable for large magnitudes."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    # log(1 + exp(-|x|)) + max(x, 0) - x*y
    abs_neg = -(logits.relu() + (-logits).relu())
    log_term = softplus(abs_neg)
    relu_term = logits.relu()
    return (log_term + relu_term - logits * targets).mean()


def cross_entropy(logits, target_indices):
    """Categorical cross-entropy given integer class targets."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    target_indices = np.asarray(target_indices, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(len(target_indices))
    picked = log_probs[rows, target_indices]
    return -picked.mean()

