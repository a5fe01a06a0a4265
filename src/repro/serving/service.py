"""The batched path-embedding service.

:class:`PathEmbeddingService` fronts any representation model that exposes
``encode(list_of_temporal_paths) -> (N, D) array`` — a trained
:class:`~repro.core.wsccl.WSCCL`, any
:class:`~repro.core.encoder.PathEncoder`, or any baseline implementing
:class:`~repro.baselines.base.RepresentationModel` — and serves embeddings at
batch granularity:

1. **Cache lookup.**  Each requested path is first looked up in a
   4,096-entry LRU cache keyed on the exact ``(edge sequence, day of week,
   seconds)`` departure, so a hit is always correct whatever the model's
   temporal granularity.  A hit is the cache's read-only row, which
   ``embed`` copies once, into the matrix it returns.
2. **Deduplication.**  Misses are deduplicated within the request: the same
   temporal path requested twice is encoded once.
3. **Length-bucketed micro-batching.**  Remaining unique misses are planned
   by :func:`~repro.serving.bucketing.plan_batches` into micro-batches of at
   most 64 paths, each padded to its own length bucket's maximum instead of
   the global one.  Each path's length is read once, from its edge
   sequence.
4. **Metrics.**  Per-request latency, throughput, padding efficiency and
   cache counters are recorded in a
   :class:`~repro.serving.metrics.ServiceMetrics` and exposed via
   :meth:`PathEmbeddingService.scrape`.

Whatever the request mix or cache state, every returned row is
byte-identical to the row ``model.encode`` gives its path within the path's
planned micro-batch.  It agrees with one-at-a-time ``model.encode([tp])``
calls to 1e-10, not bit for bit: a gemm row's low bits can depend on how many
rows the micro-batch has (see ``tests/serving/``).
"""

from __future__ import annotations

import time

import numpy as np

from .bucketing import plan_batches
from .cache import LRUEmbeddingCache
from .metrics import ServiceMetrics

__all__ = ["PathEmbeddingService", "cache_key"]

#: Upper bound on paths per model micro-batch; no larger than the chunk of
#: ``encode_in_chunks``, so each micro-batch is one forward pass.
_MAX_BATCH_SIZE = 64
#: LRU capacity in embeddings.
_CACHE_CAPACITY = 4096


def cache_key(temporal_path):
    """Cache key ``(edge sequence, day of week, seconds)`` for a temporal path.

    Keying on the exact departure time never merges two requests a model
    could distinguish, whatever its temporal granularity, while repeated
    requests for the same temporal path (the common traffic pattern) still
    hit.
    """
    departure = temporal_path.departure_time
    day = getattr(departure, "day_of_week", None)
    seconds = getattr(departure, "seconds", None)
    if day is None or seconds is None:
        return (temporal_path.path, repr(departure))
    return (temporal_path.path, int(day), float(seconds))


class PathEmbeddingService:
    """Serve path embeddings from ``model`` with batching and caching.

    ``model`` is any object exposing ``encode(temporal_paths) -> (N, D)
    array``.
    """

    def __init__(self, model):
        self.model = model
        self.cache = LRUEmbeddingCache(_CACHE_CAPACITY)
        self.metrics = ServiceMetrics()

    # ------------------------------------------------------------------
    def _encode_batch(self, temporal_paths, lengths):
        """One model call over paths of the given lengths; validates the
        result and records padding stats."""
        embeddings = np.asarray(self.model.encode(temporal_paths), dtype=np.float64)
        if embeddings.ndim != 2 or len(embeddings) != len(temporal_paths):
            raise ValueError(
                f"model returned shape {embeddings.shape} for "
                f"{len(temporal_paths)} paths")
        self.metrics.record_batch(len(temporal_paths), max(lengths), sum(lengths))
        return embeddings

    # ------------------------------------------------------------------
    def embed(self, temporal_paths):
        """Embeddings for ``temporal_paths`` as an ``(N, D)`` float64 matrix.

        Rows are in request order.  Each is the row ``model.encode`` gave
        the path in the micro-batch it was planned into (or cached from);
        it agrees with a one-at-a-time ``model.encode([tp])`` to 1e-10.
        """
        temporal_paths = list(temporal_paths)
        started = time.perf_counter()
        count = len(temporal_paths)
        if count == 0:
            empty = np.asarray(self.model.encode([]), dtype=np.float64)
            self.metrics.record_request(0, time.perf_counter() - started)
            return empty

        rows = [None] * count
        # key -> list of request positions wanting that embedding.
        pending = {}
        pending_paths = []
        for position, path in enumerate(temporal_paths):
            key = cache_key(path)
            cached = self.cache.get(key)
            if cached is not None:
                rows[position] = cached
            elif key in pending:
                pending[key].append(position)
            else:
                pending[key] = [position]
                pending_paths.append((key, path))

        if pending_paths:
            lengths = [len(path.path) for _, path in pending_paths]
            for batch_indices in plan_batches(lengths, _MAX_BATCH_SIZE):
                batch = [pending_paths[i] for i in batch_indices]
                embeddings = self._encode_batch([path for _, path in batch],
                                                [lengths[i] for i in batch_indices])
                for (key, _), embedding in zip(batch, embeddings):
                    self.cache.put(key, embedding)
                    for position in pending[key]:
                        rows[position] = embedding

        # Cached rows are the cache's read-only arrays; np.array copies them
        # into one matrix, as np.stack would, with less per-call work.
        result = np.array(rows)
        self.metrics.record_request(count, time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    # RepresentationModel-compatible interface
    # ------------------------------------------------------------------
    def encode(self, temporal_paths):
        """Alias of :meth:`embed`, so a service can stand in for a model."""
        return self.embed(temporal_paths)

    # ------------------------------------------------------------------
    def scrape(self):
        """Metrics snapshot: throughput, latency, padding and cache counters."""
        return self.metrics.scrape(cache_stats=self.cache.stats())

    def reset_metrics(self):
        """Zero serving metrics and cache counters (cache contents stay)."""
        self.metrics.reset()
        self.cache.reset_stats()
