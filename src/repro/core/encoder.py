"""Temporal Path Encoder (paper §IV) and the path-encoder contract.

:class:`TemporalPathEncoder` is the model WSCCL trains.  It turns a batch of
temporal paths into

* spatio-temporal edge representations (STERs) — the per-step outputs of the
  LSTM over concatenated spatial/temporal edge features (Eq. 7), and
* temporal path representations (TPRs) — the masked mean of the STERs over
  the path (Eq. 8).

Every path encoder of the repository, WSCCL's and the sequence baselines',
is a :class:`PathEncoder`: ``forward(paths)`` returns ``(representations,
steps, mask)`` and the inherited ``encode(paths)`` returns the
representations as numpy.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .. import nn

__all__ = ["PathEncoder", "TemporalPathEncoder", "pad_paths", "encode_in_chunks", "PAD_EDGE_ID"]

#: Reserved edge id marking padding positions.  It is never a valid edge
#: index; :class:`~repro.core.spatial.SpatialEmbedding` maps it to an exactly
#: zero feature vector so padded steps cannot leak activations or gradients.
PAD_EDGE_ID = -1
#: Paths per forward pass of :func:`encode_in_chunks`.
_CHUNK = 64


def pad_paths(temporal_paths, pad_value=PAD_EDGE_ID):
    """Pad a list of temporal paths into dense arrays.

    Returns
    -------
    edge_ids:
        ``(batch, max_len)`` int array; padding positions hold the reserved
        :data:`PAD_EDGE_ID` sentinel (embedded as zeros and masked
        downstream).
    mask:
        ``(batch, max_len)`` float array with 1.0 on real steps.
    """
    if not temporal_paths:
        raise ValueError("cannot pad an empty batch")
    if pad_value != int(pad_value) or int(pad_value) >= 0:
        # Non-negative (or truncating-to-0) pads would alias a real edge id
        # and be embedded as it.
        raise ValueError(f"pad_value must be a negative integer, got {pad_value}")
    batch = len(temporal_paths)
    lengths = np.fromiter((len(tp) for tp in temporal_paths),
                          dtype=np.int64, count=batch)
    max_len = int(lengths.max())
    valid = np.arange(max_len)[None, :] < lengths[:, None]
    edge_ids = np.full((batch, max_len), int(pad_value), dtype=np.int64)
    edge_ids[valid] = np.fromiter(
        chain.from_iterable(tp.path for tp in temporal_paths),
        dtype=np.int64, count=int(lengths.sum()))
    return edge_ids, valid.astype(np.float64)


def encode_in_chunks(forward, temporal_paths, empty_shape):
    """Run ``forward`` over chunks of 64 paths without gradients.

    ``forward(chunk)`` returns a Tensor with one row per path; the rows of
    all chunks are stacked into one numpy array.  No paths give
    ``np.zeros(empty_shape)``.  :meth:`PathEncoder.encode` and every
    supervised model's ``predict`` is this loop.
    """
    if not temporal_paths:
        return np.zeros(empty_shape)
    with nn.no_grad():
        return np.concatenate([
            forward(temporal_paths[start:start + _CHUNK]).data
            for start in range(0, len(temporal_paths), _CHUNK)
        ], axis=0)


class PathEncoder(nn.Module):
    """A module that encodes temporal paths.

    Subclasses set ``output_dim`` and define ``forward(temporal_paths)``,
    which returns ``(representations, steps, mask)``: the ``(batch,
    output_dim)`` path representations, the ``(batch, max_len, ·)`` per-step
    states and the ``(batch, max_len)`` numpy validity mask.
    """

    def encode(self, temporal_paths):
        """Path representations as a numpy ``(N, output_dim)`` matrix, without
        gradients: the inference entry point of every encoder."""
        return encode_in_chunks(lambda chunk: self(chunk)[0], temporal_paths,
                                (0, self.output_dim))


class TemporalPathEncoder(PathEncoder):
    """Encode temporal paths into STERs and TPRs (Eq. 7–8).

    Parameters
    ----------
    config:
        :class:`~repro.core.config.WSCCLConfig`.
    spatial, temporal:
        The :class:`~repro.core.spatial.SpatialEmbedding` and
        :class:`~repro.core.temporal_embedding.TemporalEmbedding` of the
        path's edges and departure time;
        :meth:`~repro.core.model.SharedResources.new_encoder` builds both
        over shared frozen node2vec features.
    rng:
        Generator the LSTM weights are drawn from.
    use_temporal:
        When False the temporal embedding is replaced with zeros; this is the
        WSCCL-NT ablation of Table VIII.
    """

    def __init__(self, config, spatial, temporal, rng, use_temporal=True):
        super().__init__()
        self.config = config
        self.use_temporal = use_temporal
        #: ``d_h``: dimensionality of the TPRs.
        self.output_dim = config.hidden_dim
        self.spatial = spatial
        self.temporal = temporal
        self.lstm = nn.LSTM(
            input_size=config.encoder_input_dim,
            hidden_size=config.hidden_dim,
            num_layers=config.lstm_layers,
            rng=rng,
        )

    def forward(self, temporal_paths):
        """``(tprs, sters, mask)`` for a list of
        :class:`~repro.datasets.temporal_paths.TemporalPath`."""
        outputs, mask = self._steps(temporal_paths)
        # Masked mean over valid steps (Eq. 8).
        return nn.functional.masked_mean(outputs, mask), outputs, mask

    def _steps(self, temporal_paths):
        """``(sters, mask)``: the LSTM's per-step outputs (Eq. 7) without the
        TPRs, which the WSC train step's objective averages itself."""
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)                      # (B, T, d)
        departure_times = [tp.departure_time for tp in temporal_paths]
        temporal = self.temporal(departure_times)             # (B, d_tem)
        if not self.use_temporal:
            temporal = nn.Tensor(np.zeros_like(temporal.data))
        # Broadcast the temporal embedding to every step of the path.
        temporal_steps = nn.Tensor(np.repeat(temporal.data[:, None, :], edge_ids.shape[1], axis=1))
        inputs = nn.Tensor.concatenate([temporal_steps, spatial], axis=-1)
        outputs, _ = self.lstm(inputs, mask=mask)             # (B, T, d_h), Eq. 7
        return outputs, mask
