"""Length-bucketed micro-batch planning for path encoding.

Padding a mini-batch to its longest path wastes compute on every shorter
path.  :func:`plan_batches` groups path lengths into buckets of a fixed width
(``1..8`` share a bucket, ``9..16`` the next, and so on), so each micro-batch
is padded only to its own bucket's maximum and per-step padding waste is
bounded by ``(width - 1) / length``.

Plans are deterministic: buckets are visited in ascending length order and
paths keep their arrival order within a bucket, so serving results are
reproducible run to run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["plan_batches"]

#: Lengths ``1..8`` share the first bucket, ``9..16`` the second, ...
_BUCKET_WIDTH = 8


def plan_batches(lengths, max_batch_size):
    """Plan micro-batches of at most ``max_batch_size`` paths.

    Returns a list of 1-D ``int64`` index arrays into ``lengths``; every
    index appears in exactly one micro-batch, and all members of a
    micro-batch share a length bucket.
    """
    keys = (np.asarray(lengths, dtype=np.int64) - 1) // _BUCKET_WIDTH
    order = np.argsort(keys, kind="stable")
    buckets = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    return [bucket[start:start + max_batch_size]
            for bucket in buckets
            for start in range(0, len(bucket), max_batch_size)]
