"""Transformer-based temporal path encoder (paper §IV-C extension).

The paper notes that the LSTM in Eq. 7 could be replaced by "more advanced
sequential models, e.g., Transformer".  This module provides that extension: a
small pre-norm Transformer encoder over the same spatio-temporal edge features,
drop-in compatible with :class:`~repro.core.encoder.TemporalPathEncoder` (same
constructor signature and :class:`EncodedBatch` output), so it can be used by
``WSCModel``/``WSCCL`` via the ``encoder_factory`` hook or standalone.

Attention runs as a single 4-D computation — one reshape to
``(batch, heads, time, head_dim)``, one batched matmul, one fused masked
softmax, one batched matmul back — instead of a Python loop over heads.  The
original per-head loop is kept as
:meth:`MultiHeadSelfAttention._reference_forward` and is the oracle for the
equivalence test suite.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .encoder import EncodedBatch, pad_paths
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding

__all__ = [
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "TransformerPathEncoder",
    "attention_mask_bias",
]

#: Additive bias applied to masked attention scores; the shared
#: :data:`repro.nn.functional.EXCLUDED_BIAS` underflows the softmax weight
#: to exactly zero in both float32 and float64.
MASK_BIAS_VALUE = F.EXCLUDED_BIAS


def _sinusoidal_positions(length, dim):
    """Standard sinusoidal positional encodings, shape (length, dim)."""
    positions = np.arange(length)[:, None]
    dimensions = np.arange(dim)[None, :]
    angles = positions / np.power(10000.0, (2 * (dimensions // 2)) / dim)
    encoding = np.zeros((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


def attention_mask_bias(mask, dtype=None):
    """Precompute the additive attention bias for a (batch, time) mask.

    Returns a constant ``(batch, 1, 1, time)`` numpy array with 0 on valid
    key positions and :data:`MASK_BIAS_VALUE` on padding, broadcastable
    against ``(batch, heads, time, time)`` score tensors.  Computing it once
    per encoder forward (instead of once per head per layer) is part of the
    training fast path.
    """
    mask = np.asarray(mask)
    bias = np.where(mask > 0, 0.0, MASK_BIAS_VALUE)
    if dtype is not None:
        bias = bias.astype(dtype)
    return bias[:, None, None, :]


class MultiHeadSelfAttention(nn.Module):
    """Masked multi-head self-attention over (batch, time, dim) tensors."""

    def __init__(self, dim, num_heads=2, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = nn.Linear(dim, dim, rng=rng)
        self.key = nn.Linear(dim, dim, rng=rng)
        self.value = nn.Linear(dim, dim, rng=rng)
        self.output = nn.Linear(dim, dim, rng=rng)

    def forward(self, x, mask=None, mask_bias=None):
        """``x`` is (batch, time, dim); ``mask`` is (batch, time) with 1 = valid.

        ``mask_bias`` optionally supplies the precomputed
        :func:`attention_mask_bias` array so stacked layers share one bias
        instead of each rebuilding it from ``mask``.
        """
        batch, time_steps, _ = x.shape
        heads, head_dim = self.num_heads, self.head_dim
        if mask_bias is None and mask is not None:
            mask_bias = attention_mask_bias(mask, dtype=x.data.dtype)

        # (B, T, D) -> (B, H, T, d): project once, split heads by reshape.
        queries = self.query(x).reshape(batch, time_steps, heads, head_dim).transpose(0, 2, 1, 3)
        keys = self.key(x).reshape(batch, time_steps, heads, head_dim).transpose(0, 2, 3, 1)
        values = self.value(x).reshape(batch, time_steps, heads, head_dim).transpose(0, 2, 1, 3)

        scale = 1.0 / np.sqrt(head_dim)
        scores = (queries @ keys) * scale                      # (B, H, T, T)
        attention = F.masked_softmax(scores, mask_bias=mask_bias, axis=-1)
        context = attention @ values                           # (B, H, T, d)
        combined = context.transpose(0, 2, 1, 3).reshape(batch, time_steps, self.dim)
        return self.output(combined)

    def _reference_forward(self, x, mask=None):
        """The original per-head loop; oracle for :meth:`forward`."""
        batch, time_steps, _ = x.shape
        queries = self.query(x)
        keys = self.key(x)
        values = self.value(x)

        head_outputs = []
        scale = 1.0 / np.sqrt(self.head_dim)
        for head in range(self.num_heads):
            start = head * self.head_dim
            stop = start + self.head_dim
            q = queries[:, :, start:stop]
            k = keys[:, :, start:stop]
            v = values[:, :, start:stop]
            scores = (q @ k.transpose(0, 2, 1)) * scale        # (B, T, T)
            if mask is not None:
                bias = ((mask[:, None, :] - 1.0) * 1e9)        # 0 valid, -1e9 pad
                scores = scores + nn.Tensor(bias.astype(x.data.dtype))
            attention = F.softmax(scores, axis=-1)
            head_outputs.append(attention @ v)
        combined = nn.Tensor.concatenate(head_outputs, axis=-1)
        return self.output(combined)


class TransformerBlock(nn.Module):
    """Pre-norm Transformer block: attention + feed-forward with residuals."""

    def __init__(self, dim, num_heads=2, hidden_multiplier=2, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attention_norm = nn.LayerNorm(dim)
        self.attention = MultiHeadSelfAttention(dim, num_heads=num_heads, rng=rng)
        self.feedforward_norm = nn.LayerNorm(dim)
        self.feedforward_in = nn.Linear(dim, dim * hidden_multiplier, rng=rng)
        self.feedforward_out = nn.Linear(dim * hidden_multiplier, dim, rng=rng)

    def forward(self, x, mask=None, mask_bias=None):
        x = x + self.attention(self.attention_norm(x), mask=mask, mask_bias=mask_bias)
        hidden = self.feedforward_in(self.feedforward_norm(x)).relu()
        return x + self.feedforward_out(hidden)


class TransformerPathEncoder(nn.Module):
    """Transformer alternative to the LSTM temporal path encoder.

    Produces the same :class:`EncodedBatch` interface (TPRs + per-edge
    spatio-temporal representations + mask), so the WSC losses, curriculum
    machinery and downstream evaluators work unchanged.
    """

    def __init__(self, network, config, spatial_embedding=None,
                 temporal_embedding=None, use_temporal=True,
                 num_layers=2, num_heads=2, max_path_length=256, rng=None):
        super().__init__()
        self.config = config
        self.network = network
        self.use_temporal = use_temporal
        rng = rng or np.random.default_rng(config.seed)

        self.spatial = spatial_embedding or SpatialEmbedding(network, config, rng=rng)
        self.temporal = temporal_embedding or TemporalEmbedding(config)
        self.input_projection = nn.Linear(config.encoder_input_dim, config.hidden_dim, rng=rng)
        self._block_names = []
        for layer in range(num_layers):
            name = f"block{layer}"
            setattr(self, name, TransformerBlock(config.hidden_dim, num_heads=num_heads, rng=rng))
            self._block_names.append(name)
        self._positional = _sinusoidal_positions(max_path_length, config.hidden_dim)
        # (max_len, dtype) -> constant Tensor; avoids re-slicing/re-wrapping
        # the positional table on every forward.
        self._positional_cache = {}

    @property
    def output_dim(self):
        """Dimensionality of the produced TPRs."""
        return self.config.hidden_dim

    def _positional_tensor(self, max_len, dtype):
        key = (max_len, np.dtype(dtype).name)
        cached = self._positional_cache.get(key)
        if cached is None:
            cached = nn.Tensor(
                self._positional[:max_len][None, :, :].astype(dtype))
            self._positional_cache[key] = cached
        return cached

    def forward(self, temporal_paths):
        """Encode a batch of temporal paths into an :class:`EncodedBatch`."""
        edge_ids, mask = pad_paths(temporal_paths)
        batch, max_len = edge_ids.shape
        if max_len > self._positional.shape[0]:
            raise ValueError(
                f"path of length {max_len} exceeds max_path_length "
                f"{self._positional.shape[0]}")

        spatial = self.spatial(edge_ids)
        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        if not self.use_temporal:
            temporal = nn.Tensor(np.zeros_like(temporal.data))
        temporal_steps = nn.Tensor(
            np.repeat(temporal.data[:, None, :], max_len, axis=1)
            .astype(spatial.data.dtype, copy=False))
        inputs = nn.Tensor.concatenate([temporal_steps, spatial], axis=-1)

        hidden = self.input_projection(inputs)
        hidden = hidden + self._positional_tensor(max_len, hidden.data.dtype)
        # One bias for all layers instead of one Tensor wrap per head per layer.
        mask_bias = attention_mask_bias(mask, dtype=hidden.data.dtype)
        for name in self._block_names:
            hidden = getattr(self, name)(hidden, mask=mask, mask_bias=mask_bias)

        dtype = hidden.data.dtype
        mask_tensor = nn.Tensor(mask[:, :, None].astype(dtype))
        counts = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0).astype(dtype))
        tprs = (hidden * mask_tensor).sum(axis=1) / counts
        return EncodedBatch(tprs=tprs, edge_representations=hidden,
                            mask=mask, edge_ids=edge_ids)

    def encode(self, temporal_paths, batch_size=64):
        """Numpy TPR matrix without gradient tracking (same as the LSTM encoder)."""
        chunks = []
        with nn.no_grad():
            for start in range(0, len(temporal_paths), batch_size):
                chunk = temporal_paths[start:start + batch_size]
                if not chunk:
                    continue
                chunks.append(self.forward(chunk).tprs.data.copy())
        if not chunks:
            return np.zeros((0, self.output_dim))
        return np.concatenate(chunks, axis=0)
