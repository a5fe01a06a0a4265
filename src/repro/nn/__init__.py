"""Minimal neural-network substrate (numpy autograd) used by WSCCL.

This package substitutes for PyTorch in the original artifact: a float64
reverse-mode autograd engine (:mod:`.tensor`), modules and parameters, the
linear, embedding and LSTM layers, the Adam optimiser, and the functional ops
the WSC losses and baselines use.
"""

from . import functional
from .init import orthogonal, uniform, xavier_normal, xavier_uniform, zeros
from .layers import Embedding, Linear
from .module import Module, Parameter
from .optim import Adam, Optimizer, clip_grad_norm
from .recurrent import LSTM, LSTMCell
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "functional",
    "xavier_uniform",
    "xavier_normal",
    "orthogonal",
    "uniform",
    "zeros",
]
