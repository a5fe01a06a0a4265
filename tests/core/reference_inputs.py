"""The encoder's input builders as they were written with numpy only: the
oracles of ``repro.core.pad_paths`` and ``TemporalEmbedding.slot_indices``.

``test_input_builders.py`` checks that the builders give the same arrays,
dtype and bytes included.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def pad_paths_reference(temporal_paths, pad_value=-1):
    """``(edge_ids, mask)``: boolean-mask assignment into a padded grid."""
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


def slot_indices_reference(slots_per_day, departure_times):
    """Temporal-graph node index ``day * slots_per_day + slot of the day``."""
    count = len(departure_times)
    seconds = np.fromiter((t.seconds for t in departure_times),
                          dtype=np.float64, count=count)
    days = np.fromiter((t.day_of_week for t in departure_times),
                       dtype=np.int64, count=count)
    seconds_per_slot = 86400.0 / slots_per_day
    slots = np.minimum((seconds // seconds_per_slot).astype(np.int64),
                       slots_per_day - 1)
    return days * slots_per_day + slots
