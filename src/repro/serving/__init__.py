"""Batched path-embedding serving layer (``repro.serving``).

This package turns a trained representation model into a serving component
sized for the ROADMAP's traffic goals.  It is the seam later scaling work
(sharding, async request handling, multiple model backends) plugs into.

Components
----------
:class:`PathEmbeddingService`
    Fronts any ``encode``-capable model with length-bucketed micro-batching,
    an LRU embedding cache and a metrics scrape, while remaining numerically
    faithful to one-at-a-time encoding.
:class:`LRUEmbeddingCache`
    Bounded ``(edge sequence, departure time) -> embedding`` store with
    hit/miss/eviction counters (widen the key per model with
    :func:`slot_cache_key`).
Bucket policies (``"none"``, ``"fixed"``, ``"pow2"``, ``"exact"``)
    Control how much padding waste micro-batches may carry; see
    :mod:`repro.serving.bucketing` for the trade-offs.
:class:`ServiceMetrics`
    Throughput, p50/p95 latency, padding efficiency and cache hit rate in
    one scrape dictionary.

Quick start::

    from repro.serving import PathEmbeddingService

    service = PathEmbeddingService(model, bucket_policy="fixed",
                                   max_batch_size=64, cache_capacity=4096)
    embeddings = service.embed(temporal_paths)   # (N, D), request order
    print(service.scrape())                      # metrics snapshot

The ``serve-zipf`` workload of ``perfbench/run.py`` measures the service
end to end: a Zipf request replay against a warm cache, checked row by row
against direct encoding.
"""

from .bucketing import (
    BUCKET_POLICIES,
    BucketPolicy,
    ExactLengthBucketPolicy,
    FixedWidthBucketPolicy,
    PowerOfTwoBucketPolicy,
    SingleBucketPolicy,
    get_bucket_policy,
)
from .cache import LRUEmbeddingCache
from .metrics import ServiceMetrics
from .service import PathEmbeddingService, default_cache_key, slot_cache_key

__all__ = [
    "BUCKET_POLICIES",
    "BucketPolicy",
    "ExactLengthBucketPolicy",
    "FixedWidthBucketPolicy",
    "PowerOfTwoBucketPolicy",
    "SingleBucketPolicy",
    "get_bucket_policy",
    "LRUEmbeddingCache",
    "ServiceMetrics",
    "PathEmbeddingService",
    "default_cache_key",
    "slot_cache_key",
]
