"""Feed-forward layers used across WSCCL and its baselines."""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding"]


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for the paper's spatial feature embeddings (road type, number of
    lanes, one-way flag, traffic signals) in Eq. 3.
    """

    def __init__(self, num_embeddings, embedding_dim, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.xavier_normal((num_embeddings, embedding_dim), rng))

    def forward(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min(initial=0) < 0 or (indices.size and indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}) : "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight[indices]

