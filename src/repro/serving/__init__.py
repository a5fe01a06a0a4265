"""Batched path-embedding serving layer (``repro.serving``).

This package turns a trained representation model into the component every
downstream evaluation reads its embeddings from.

Components
----------
:class:`PathEmbeddingService`
    Fronts any ``encode``-capable model with length-bucketed micro-batching
    (at most 64 paths per batch), a 4,096-entry LRU embedding cache and a
    metrics scrape, while remaining numerically faithful to one-at-a-time
    encoding.
:class:`LRUEmbeddingCache`
    Bounded ``(edge sequence, departure time) -> embedding`` store with
    hit/miss/eviction counters; :func:`cache_key` builds its keys.
:func:`plan_batches`
    Groups path lengths into buckets of width 8 so each micro-batch is
    padded only to its own bucket's maximum.
:class:`ServiceMetrics`
    Throughput, p50/p95 latency, padding efficiency and cache hit rate in
    one scrape dictionary.

Quick start::

    from repro.serving import PathEmbeddingService

    service = PathEmbeddingService(model)
    embeddings = service.embed(temporal_paths)   # (N, D), request order
    print(service.scrape())                      # metrics snapshot

The ``serve-zipf`` workload of ``perfbench/run.py`` measures the service
end to end: a Zipf request replay against a warm cache, checked row by row
against direct encoding.
"""

from .bucketing import plan_batches
from .cache import LRUEmbeddingCache
from .metrics import ServiceMetrics
from .service import PathEmbeddingService, cache_key

__all__ = [
    "plan_batches",
    "LRUEmbeddingCache",
    "ServiceMetrics",
    "PathEmbeddingService",
    "cache_key",
]
