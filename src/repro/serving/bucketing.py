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

from .._checks import check_integer

__all__ = ["plan_batches"]

#: Lengths ``1..8`` share the first bucket, ``9..16`` the second, ...
_BUCKET_WIDTH = 8


def plan_batches(lengths, max_batch_size):
    """Plan micro-batches of at most ``max_batch_size`` paths.

    Returns a list of micro-batches, each a list of indices into
    ``lengths``; every index appears in exactly one micro-batch, and all
    members of a micro-batch share a length bucket.  A request holds a
    handful of lengths, so the grouping is plain Python.  ``max_batch_size``
    must be an integer >= 1 and every length at least 1; anything else
    raises ``ValueError``.
    """
    size = check_integer("max_batch_size", max_batch_size, low=1)
    if len(lengths) and min(lengths) < 1:
        raise ValueError(f"lengths must all be >= 1, got {min(lengths)!r}")
    buckets = {}
    for index, length in enumerate(lengths):
        buckets.setdefault((length - 1) // _BUCKET_WIDTH, []).append(index)
    return [bucket[start:start + size]
            for _, bucket in sorted(buckets.items())
            for start in range(0, len(bucket), size)]
