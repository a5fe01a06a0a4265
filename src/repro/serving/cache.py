"""LRU cache for path embeddings.

The cache maps a hashable key — the service uses ``(edge sequence,
departure time)``, see :func:`repro.serving.service.cache_key` — to the
embedding vector the model computed for it.  ``put`` stores one read-only
copy per entry, so memory stays bounded by the capacity, and ``get`` serves
that read-only row itself: writing to it raises ``ValueError``, so neither
the service nor its callers can corrupt a cached value in place.

Eviction is least-recently-used: both hits and overwrites refresh an entry's
recency.  The cache keeps running ``hits`` / ``misses`` / ``evictions`` /
``inserts`` counters which :class:`~repro.serving.metrics.ServiceMetrics`
folds into its scrape output.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .._checks import check_integer

__all__ = ["LRUEmbeddingCache"]


class LRUEmbeddingCache:
    """A bounded mapping ``key -> embedding vector`` with LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries, an integer >= 1.  When a ``put`` would
        exceed it, the least recently used entry is evicted.
    """

    def __init__(self, capacity):
        self.capacity = int(check_integer("capacity", capacity, low=1))
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        """Membership test; does not touch recency or counters."""
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key):
        """Return the cached read-only embedding, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, embedding):
        """Store a read-only copy of ``embedding`` under ``key``, evicting if
        full."""
        value = np.array(embedding, dtype=np.float64, copy=True)
        value.setflags(write=False)
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return
        self._entries[key] = value
        self.inserts += 1
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self):
        """Drop every entry; counters are preserved (use :meth:`reset_stats`)."""
        self._entries.clear()

    def reset_stats(self):
        """Zero the hit/miss/eviction/insert counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self):
        """Counter snapshot as a plain dict (scrape-friendly)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }
