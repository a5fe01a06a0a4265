"""Unit tests for micro-batch planning, serving metrics and the service's
bookkeeping (padding efficiency, scrape shape, dedup)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    PathEmbeddingService,
    ServiceMetrics,
    cache_key,
    plan_batches,
    service as service_module,
)


class TestPlanBatches:
    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 100), min_size=1, max_size=60),
        max_batch_size=st.integers(1, 16),
    )
    def test_plan_is_a_partition(self, lengths, max_batch_size):
        plan = plan_batches(lengths, max_batch_size)
        seen = np.concatenate(plan) if plan else np.array([], dtype=np.int64)
        assert sorted(seen.tolist()) == list(range(len(lengths)))
        for batch in plan:
            assert 1 <= len(batch) <= max_batch_size
            buckets = {(lengths[i] - 1) // 8 for i in batch}
            assert len(buckets) == 1  # no batch straddles buckets

    def test_fixed_width_bounds_padding(self):
        lengths = list(range(1, 21))
        for batch in plan_batches(lengths, max_batch_size=64):
            batch_lengths = [lengths[i] for i in batch]
            assert max(batch_lengths) - min(batch_lengths) < 8

    def test_buckets_in_length_order_then_arrival_order(self):
        plan = plan_batches([9, 1, 5, 17, 2, 7, 10], max_batch_size=2)
        assert [batch.tolist() for batch in plan] == [[1, 2], [4, 5], [0, 6], [3]]


    def test_empty_request_plans_no_batches(self):
        assert plan_batches([], max_batch_size=4) == []

    def test_full_bucket_splits_into_max_size_chunks_in_arrival_order(self):
        plan = plan_batches([3] * 130, max_batch_size=64)
        assert [len(batch) for batch in plan] == [64, 64, 2]
        assert np.concatenate(plan).tolist() == list(range(130))


class TestServiceMetrics:
    def test_scrape_values(self):
        metrics = ServiceMetrics()
        metrics.record_request(10, 0.5)
        metrics.record_request(30, 1.5)
        metrics.record_batch(4, max_length=10, total_real_steps=25)
        metrics.record_batch(2, max_length=5, total_real_steps=10)

        scraped = metrics.scrape(cache_stats={"hits": 3, "hit_rate": 0.75})
        assert scraped["requests"] == 2
        assert scraped["paths_served"] == 40
        assert scraped["throughput_paths_per_s"] == pytest.approx(20.0)
        assert scraped["padding_efficiency"] == pytest.approx(35 / 50)
        assert scraped["latency_p50_ms"] == pytest.approx(1000.0)
        assert scraped["cache_hits"] == 3
        assert scraped["cache_hit_rate"] == 0.75

    def test_empty_metrics_are_finite(self):
        scraped = ServiceMetrics().scrape()
        assert scraped["throughput_paths_per_s"] == 0.0
        assert scraped["latency_p95_ms"] == 0.0
        assert scraped["padding_efficiency"] == 1.0


class CountingModel:
    """Length-encoding stub that counts encode calls and paths."""

    representation_dim = 2

    def __init__(self):
        self.calls = []

    def encode(self, temporal_paths):
        self.calls.append(len(temporal_paths))
        return np.array([[len(tp), tp.departure_time.slot_index]
                         for tp in temporal_paths], dtype=np.float64)


class TestServiceBookkeeping:
    def test_duplicates_encoded_once_per_request_with_cache(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        path = tiny_city.unlabeled.temporal_paths[0]
        result = service.embed([path, path, path])
        assert sum(model.calls) == 1
        assert result.shape == (3, 2)
        np.testing.assert_array_equal(result[0], result[1])

    def test_cache_avoids_re_encoding_across_requests(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:6]
        service.embed(paths)
        encoded_first = sum(model.calls)
        service.embed(paths)
        assert sum(model.calls) == encoded_first  # all hits, no new encodes
        assert service.cache.hits == len(paths)

    def test_equal_length_request_reports_full_padding_efficiency(self, tiny_city):
        paths = tiny_city.unlabeled.temporal_paths
        length = len(paths[0])
        same_length = [tp for tp in paths if len(tp) == length][:12]
        service = PathEmbeddingService(CountingModel())
        service.embed(same_length)
        assert service.metrics.padding_efficiency == 1.0

    def test_scrape_includes_counters(self, tiny_city, monkeypatch):
        monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", 4)
        service = PathEmbeddingService(CountingModel())
        service.embed(tiny_city.unlabeled.temporal_paths[:5])
        scraped = service.scrape()
        assert scraped["batches"] >= 2
        assert scraped["cache_misses"] == 5
        assert scraped["paths_served"] == 5
        assert 0.0 < scraped["padding_efficiency"] <= 1.0
        assert scraped["latency_p95_ms"] >= scraped["latency_p50_ms"] >= 0.0

    def test_cache_capacity_bounds_entries_and_counts_evictions(
            self, tiny_city, monkeypatch):
        monkeypatch.setattr(service_module, "_CACHE_CAPACITY", 2)
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:5]
        assert len({cache_key(tp) for tp in paths}) == 5
        service.embed(paths)
        assert len(service.cache) == 2
        assert service.cache.evictions == 3
        assert service.scrape()["cache_evictions"] == 3
        # Only the two most recently encoded paths are still cached.
        service.embed(paths)
        assert sum(model.calls) == 5 + 3

    def test_malformed_model_output_rejected(self, tiny_city):
        class BadModel:
            def encode(self, temporal_paths):
                return np.zeros(3)

        service = PathEmbeddingService(BadModel())
        with pytest.raises(ValueError):
            service.embed(tiny_city.unlabeled.temporal_paths[:2])

    def test_reset_metrics_keeps_cache_contents(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:4]
        service.embed(paths)
        service.reset_metrics()
        assert service.scrape()["paths_served"] == 0
        service.embed(paths)
        assert service.cache.hits == len(paths)  # still warm


class TestCacheKeys:
    """Regression tests: the cache key must never merge departure times a
    served model could distinguish (whatever its slot granularity)."""

    def test_cache_key_distinguishes_sub_slot_times(self, tiny_city):
        from repro.datasets import TemporalPath
        from repro.temporal import DepartureTime

        base = tiny_city.unlabeled.temporal_paths[0]
        # Same 5-minute slot, but a 4-minute-slot model would split them.
        early = TemporalPath(path=base.path,
                             departure_time=DepartureTime(0, 0.0))
        late = TemporalPath(path=base.path,
                            departure_time=DepartureTime(0, 270.0))
        assert cache_key(early) != cache_key(late)

    def test_cache_never_serves_stale_embedding_to_time_sensitive_model(
            self, tiny_city):
        from repro.datasets import TemporalPath
        from repro.temporal import DepartureTime

        class SecondsModel:
            """Embeds the exact departure seconds (finest possible model)."""

            def encode(self, temporal_paths):
                return np.array([[len(tp), tp.departure_time.seconds]
                                 for tp in temporal_paths], dtype=np.float64)

        base = tiny_city.unlabeled.temporal_paths[0]
        early = TemporalPath(path=base.path,
                             departure_time=DepartureTime(0, 0.0))
        late = TemporalPath(path=base.path,
                            departure_time=DepartureTime(0, 270.0))
        service = PathEmbeddingService(SecondsModel())
        service.embed([early])                       # warm the cache
        served = service.embed([late])               # must NOT hit early's entry
        np.testing.assert_array_equal(served[0], [len(late), 270.0])


class TestModelBatchSizePassThrough:
    def test_internal_rechunking_is_disabled(self, tiny_city):
        """Models with their own encode(batch_size=...) default must receive
        the micro-batch size, or they would re-chunk internally and the
        padding stats would be wrong."""

        class BatchAwareModel:
            representation_dim = 1

            def __init__(self):
                self.seen = []

            def encode(self, temporal_paths, batch_size=4):
                self.seen.append((len(temporal_paths), batch_size))
                return np.array([[len(tp)] for tp in temporal_paths],
                                dtype=np.float64)

        model = BatchAwareModel()
        service = PathEmbeddingService(model)
        service.embed(tiny_city.unlabeled.temporal_paths[:10])
        assert all(count == batch_size for count, batch_size in model.seen)
        assert sum(count for count, _ in model.seen) == 10
