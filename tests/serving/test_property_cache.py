"""Property tests for the LRU embedding cache.

Randomised get/put sequences are replayed against a trivially correct
reference implementation; the invariants under test:

* the number of entries never exceeds capacity,
* a hit always returns exactly the value that was originally stored,
* eviction order is least-recently-used (hits and overwrites refresh),
* the counters are consistent (hits + misses == lookups, inserts bounded,
  evictions == inserts - live entries).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import LRUEmbeddingCache

DIM = 3


def _embedding_for(key, version):
    """Deterministic distinct vector for (key, version)."""
    return np.arange(DIM, dtype=np.float64) + 100.0 * key + 10000.0 * version


# An operation is ("get", key) or ("put", key); puts bump the key's version
# so stale cache entries would be detected.
operations = st.lists(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 11)),
    min_size=1, max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations, capacity=st.integers(1, 9))
def test_lru_cache_matches_reference(ops, capacity):
    cache = LRUEmbeddingCache(capacity)
    reference = {}          # key -> version currently stored
    recency = []            # keys, least recent first
    versions = {}           # key -> latest version ever put
    expected_hits = expected_misses = expected_evictions = expected_inserts = 0

    for op, key in ops:
        if op == "put":
            version = versions.get(key, 0) + 1
            versions[key] = version
            cache.put(key, _embedding_for(key, version))
            if key in reference:
                reference[key] = version
                recency.remove(key)
                recency.append(key)
            else:
                reference[key] = version
                recency.append(key)
                expected_inserts += 1
                if len(reference) > capacity:
                    victim = recency.pop(0)
                    del reference[victim]
                    expected_evictions += 1
        else:
            value = cache.get(key)
            if key in reference:
                expected_hits += 1
                assert value is not None
                np.testing.assert_array_equal(
                    value, _embedding_for(key, reference[key]))
                recency.remove(key)
                recency.append(key)
            else:
                expected_misses += 1
                assert value is None

        # Invariants hold after every operation.
        assert len(cache) <= capacity
        assert len(cache) == len(reference)
        for live_key in reference:
            assert live_key in cache

    assert cache.hits == expected_hits
    assert cache.misses == expected_misses
    assert cache.evictions == expected_evictions
    assert cache.inserts == expected_inserts
    assert cache.hits + cache.misses == sum(1 for op, _ in ops if op == "get")

    stats = cache.stats()
    assert stats["size"] == len(reference)
    lookups = stats["hits"] + stats["misses"]
    if lookups:
        assert stats["hit_rate"] == stats["hits"] / lookups


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(1, 6), extra=st.integers(0, 20))
def test_capacity_never_exceeded_under_distinct_inserts(capacity, extra):
    cache = LRUEmbeddingCache(capacity)
    total = capacity + extra
    for key in range(total):
        cache.put(key, _embedding_for(key, 1))
        assert len(cache) <= capacity
    assert len(cache) == min(total, capacity)
    assert cache.evictions == max(0, total - capacity)
    # The survivors are exactly the most recently inserted keys.
    for key in range(max(0, total - capacity), total):
        assert key in cache


def test_returned_rows_are_read_only_and_the_cached_value_survives():
    cache = LRUEmbeddingCache(4)
    original = np.array([1.0, 2.0, 3.0])
    cache.put("k", original)
    original[:] = -1.0                       # caller mutates its array
    first = cache.get("k")
    np.testing.assert_array_equal(first, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        first[:] = 99.0                      # caller tries to mutate the result
    with pytest.raises(ValueError):
        first += 1.0
    np.testing.assert_array_equal(cache.get("k"), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("capacity", [0, -3, 2.7, 1.0, True, False, "8", None])
def test_invalid_capacity_rejected(capacity):
    # 2.7 used to become 2, True 1 and "8" 8.
    with pytest.raises(ValueError, match="capacity"):
        LRUEmbeddingCache(capacity)


@pytest.mark.parametrize("capacity", [1, 7, np.int64(3)])
def test_integer_capacity_accepted(capacity):
    cache = LRUEmbeddingCache(capacity)
    assert cache.capacity == int(capacity) and type(cache.capacity) is int
