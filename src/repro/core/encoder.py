"""Temporal Path Encoder (paper §IV) and the path-encoder contract.

:class:`TemporalPathEncoder` is the model WSCCL trains.  It turns a batch of
temporal paths into

* spatio-temporal edge representations (STERs) — the per-step outputs of the
  LSTM over concatenated spatial/temporal edge features (Eq. 7), and
* temporal path representations (TPRs) — the masked mean of the STERs over
  the path (Eq. 8).

Every path encoder of the repository is a :class:`PathEncoder`:
``forward(paths)`` returns ``(representations, steps, mask)`` and the
inherited ``encode(paths)`` takes each chunk's representations from the
``_representations`` hook, by default ``forward``'s.  WSCCL's encoder and
the spatial baselines' are :class:`LSTMPathEncoder` subclasses that differ
only in the numpy input they build; their shared hook computes the TPRs
without the autograd engine, byte-identical to the forward's
(``tests/core/test_inference_equivalence.py``).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .. import nn
from .._checks import check_integer

__all__ = ["PathEncoder", "LSTMPathEncoder", "TemporalPathEncoder", "pad_paths", "encode_in_chunks", "PAD_EDGE_ID"]

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

    The ids are copied with one ``np.fromiter``, since a served micro-batch
    holds a handful of paths; paths of one length are only reshaped, others
    are scattered into a padded grid.  ``tests/core/test_input_builders.py``
    holds this and the slot indices to numpy-only oracles.
    """
    if not temporal_paths:
        raise ValueError("cannot pad an empty batch")
    # A non-negative pad would alias a real edge id and be embedded as it.
    check_integer("pad_value", pad_value, high=0)
    paths = [tp.path for tp in temporal_paths]
    lengths = list(map(len, paths))
    max_len = max(lengths)
    flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=sum(lengths))
    if len(flat) == len(paths) * max_len:
        # Paths of one length (a lone path, say) need no padding.
        return flat.reshape(len(paths), max_len), np.ones((len(paths), max_len))
    valid = np.arange(max_len) < np.array(lengths)[:, None]
    edge_ids = np.full(valid.shape, int(pad_value), dtype=np.int64)
    edge_ids[valid] = flat
    return edge_ids, valid.astype(np.float64)


def encode_in_chunks(forward, temporal_paths, empty_shape):
    """Run ``forward`` over chunks of 64 paths without gradients.

    ``forward(chunk)`` returns a numpy array with one row per path; the rows
    of all chunks are stacked into one array, and a lone chunk's array is
    returned as it is.  No paths give ``np.zeros(empty_shape)``.
    :meth:`PathEncoder.encode` and every supervised model's ``predict`` is
    this loop.
    """
    if not temporal_paths:
        return np.zeros(empty_shape)
    with nn.no_grad():
        chunks = [forward(temporal_paths[start:start + _CHUNK])
                  for start in range(0, len(temporal_paths), _CHUNK)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)


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
        return encode_in_chunks(self._representations, temporal_paths,
                                (0, self.output_dim))

    def _representations(self, chunk):
        """The numpy representations of one chunk of at most 64 paths, run
        under ``no_grad``: :meth:`encode`'s hook.  By default they are
        ``forward``'s; an encoder that can compute them without the autograd
        engine overrides this with the same arithmetic."""
        return self(chunk)[0].data


class LSTMPathEncoder(PathEncoder):
    """The STERs are ``lstm``'s per-step outputs (Eq. 7) and the TPRs their
    masked mean (Eq. 8).

    A subclass sets ``spatial``, ``lstm`` and ``output_dim`` and defines
    ``_inputs(paths)``, which returns ``(inputs, mask, spatial_context)``:
    the LSTM's numpy input, whose last block ``spatial._gather`` wrote, the
    :func:`pad_paths` mask and what the gather returned.  Training wraps the
    input in the spatial embedding's autograd node; the numpy
    ``_representations`` hook reads it.
    """

    def forward(self, temporal_paths):
        """``(tprs, sters, mask)`` for a list of
        :class:`~repro.datasets.temporal_paths.TemporalPath`."""
        outputs, mask = self._steps(temporal_paths)
        # Masked mean over valid steps (Eq. 8).
        return nn.functional.masked_mean(outputs, mask), outputs, mask

    def _steps(self, temporal_paths):
        """``(sters, mask)``: the LSTM's per-step outputs (Eq. 7) without the
        TPRs, which the WSC train step's objective averages itself."""
        inputs, mask, spatial_context = self._inputs(temporal_paths)
        start = inputs.shape[-1] - self.spatial.output_dim   # the last block
        inputs = self.spatial._node(inputs, spatial_context, start=start)
        outputs, _ = self.lstm(inputs, mask=mask)             # (B, T, d_h), Eq. 7
        return outputs, mask

    def _representations(self, chunk):
        """The TPRs of ``chunk`` in numpy: the forward's arithmetic without
        the autograd engine, the mask check or the LSTM's mask.

        ``pad_paths`` gives a prefix mask, so a path's padded steps all come
        after its last real one, and the masked mean multiplies their
        outputs by zero.  On a real step the masked LSTM's blend ``h_new * 1
        + h * 0`` is ``h_new`` itself (its sign of zero aside), so the TPRs
        equal the forward's.
        """
        inputs, mask, _ = self._inputs(chunk)
        steps = inputs.swapaxes(0, 1)
        for cell in self.lstm.cells:
            steps = cell._run(steps, None, None)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        # A C-ordered product sums over time in the forward's order.
        weighted = np.multiply(steps.swapaxes(0, 1), mask[:, :, None], order="C")
        return weighted.sum(axis=1) / counts


class TemporalPathEncoder(LSTMPathEncoder):
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

    def _inputs(self, temporal_paths):
        """Each step of the input is the path's temporal embedding (Eq. 2;
        zeros without ``use_temporal``) followed by the edge's spatial
        features (Eq. 6)."""
        edge_ids, mask = pad_paths(temporal_paths)
        temporal_dim = self.config.temporal_dim
        inputs = np.empty(edge_ids.shape + (self.config.encoder_input_dim,))
        if self.use_temporal:
            departures = [tp.departure_time for tp in temporal_paths]
            slots = self.temporal.slot_indices(departures)
            # Broadcast the temporal embedding to every step of the path.
            inputs[..., :temporal_dim] = self.temporal.embeddings[slots][:, None, :]
        else:
            inputs[..., :temporal_dim] = 0.0
        spatial_context = self.spatial._gather(edge_ids, inputs[..., temporal_dim:],
                                               mask[..., None])
        return inputs, mask, spatial_context
