"""The numpy micro-batch planner: the oracle of ``plan_batches``.

``repro.serving.plan_batches`` groups a request's handful of lengths in plain
Python; this is the vectorised planner it replaced, whose plans it must
equal, each index array read as a list.
"""

from __future__ import annotations

import numpy as np

_BUCKET_WIDTH = 8


def plan_batches_reference(lengths, max_batch_size):
    """Stable sort by length bucket, split at bucket changes, then chunk."""
    keys = (np.asarray(lengths, dtype=np.int64) - 1) // _BUCKET_WIDTH
    order = np.argsort(keys, kind="stable")
    buckets = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    return [bucket[start:start + max_batch_size]
            for bucket in buckets
            for start in range(0, len(bucket), max_batch_size)]
