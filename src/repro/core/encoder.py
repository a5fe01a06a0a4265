"""Temporal Path Encoder (paper §IV).

The encoder turns a batch of temporal paths into

* spatio-temporal edge representations (STERs) — the per-step outputs of the
  LSTM over concatenated spatial/temporal edge features (Eq. 7), and
* temporal path representations (TPRs) — the masked mean of the STERs over
  the path (Eq. 8).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .. import nn
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding

__all__ = ["TemporalPathEncoder", "EncodedBatch", "pad_paths", "encode_in_chunks", "PAD_EDGE_ID"]

#: Reserved edge id marking padding positions.  It is never a valid edge
#: index; :class:`~repro.core.spatial.SpatialEmbedding` maps it to an exactly
#: zero feature vector so padded steps cannot leak activations or gradients.
PAD_EDGE_ID = -1


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


def encode_in_chunks(forward, temporal_paths, empty_shape, batch_size=64):
    """Run ``forward`` over ``batch_size`` chunks of paths without gradients.

    ``forward(chunk)`` returns a Tensor with one row per path; the rows of
    all chunks are stacked into one numpy array.  No paths give
    ``np.zeros(empty_shape)``.  Every model's ``encode`` and ``predict`` is
    this loop.
    """
    if not temporal_paths:
        return np.zeros(empty_shape)
    with nn.no_grad():
        return np.concatenate([
            forward(temporal_paths[start:start + batch_size]).data
            for start in range(0, len(temporal_paths), batch_size)
        ], axis=0)


class EncodedBatch:
    """Output of the encoder for one batch of temporal paths."""

    def __init__(self, tprs, edge_representations, mask, edge_ids):
        #: Tensor (batch, hidden_dim): the TPRs.
        self.tprs = tprs
        #: Tensor (batch, max_len, hidden_dim): the STERs.
        self.edge_representations = edge_representations
        #: numpy (batch, max_len): validity mask.
        self.mask = mask
        #: numpy (batch, max_len): edge ids (padded).
        self.edge_ids = edge_ids


class TemporalPathEncoder(nn.Module):
    """Encode temporal paths into TPRs.

    Parameters
    ----------
    network:
        The road network the paths live on.
    config:
        :class:`~repro.core.config.WSCCLConfig`.
    spatial_embedding, temporal_embedding:
        Optional pre-built embedding modules.  Sharing the (frozen) node2vec
        features across several encoders — the curriculum experts, the
        WSCCL-NT ablation — avoids recomputing walks.
    use_temporal:
        When False the temporal embedding is replaced with zeros; this is the
        WSCCL-NT ablation of Table VIII.
    """

    def __init__(self, network, config, spatial_embedding=None,
                 temporal_embedding=None, use_temporal=True, rng=None):
        super().__init__()
        self.config = config
        self.network = network
        self.use_temporal = use_temporal
        rng = rng or np.random.default_rng(config.seed)

        self.spatial = spatial_embedding or SpatialEmbedding(network, config, rng=rng)
        self.temporal = temporal_embedding or TemporalEmbedding(config)
        self.lstm = nn.LSTM(
            input_size=config.encoder_input_dim,
            hidden_size=config.hidden_dim,
            num_layers=config.lstm_layers,
            rng=rng,
        )

    @property
    def output_dim(self):
        """``d_h``: dimensionality of the TPRs."""
        return self.config.hidden_dim

    # ------------------------------------------------------------------
    def forward(self, temporal_paths):
        """Encode a list of :class:`~repro.datasets.temporal_paths.TemporalPath`.

        Returns an :class:`EncodedBatch`.
        """
        edge_ids, mask = pad_paths(temporal_paths)
        batch, max_len = edge_ids.shape

        spatial = self.spatial(edge_ids)                      # (B, T, d)
        departure_times = [tp.departure_time for tp in temporal_paths]
        temporal = self.temporal(departure_times)             # (B, d_tem)
        if not self.use_temporal:
            temporal = nn.Tensor(np.zeros_like(temporal.data))
        # Broadcast the temporal embedding to every step of the path.
        temporal_steps = nn.Tensor(np.repeat(temporal.data[:, None, :], max_len, axis=1))
        inputs = nn.Tensor.concatenate([temporal_steps, spatial], axis=-1)

        outputs, _ = self.lstm(inputs, mask=mask)             # (B, T, d_h), Eq. 7

        # Masked mean over valid steps (Eq. 8).
        tprs = nn.functional.masked_mean(outputs, mask)
        return EncodedBatch(tprs=tprs, edge_representations=outputs,
                            mask=mask, edge_ids=edge_ids)

    # ------------------------------------------------------------------
    def encode(self, temporal_paths, batch_size=64):
        """Encode paths to a plain numpy TPR matrix without tracking gradients.

        This is the inference entry point used by the downstream tasks, the
        curriculum difficulty scoring, and the baselines' evaluation harness.
        """
        return encode_in_chunks(lambda chunk: self.forward(chunk).tprs,
                                temporal_paths, (0, self.output_dim), batch_size)
