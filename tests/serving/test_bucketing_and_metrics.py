"""Unit tests for micro-batch planning, serving metrics and the service's
bookkeeping (padding efficiency, scrape shape, dedup)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bucketing import plan_batches_reference

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
        assert sorted(index for batch in plan for index in batch) == list(range(len(lengths)))
        for batch in plan:
            assert 1 <= len(batch) <= max_batch_size
            buckets = {(lengths[i] - 1) // 8 for i in batch}
            assert len(buckets) == 1  # no batch straddles buckets

    def test_fixed_width_bounds_padding(self):
        lengths = list(range(1, 21))
        for batch in plan_batches(lengths, max_batch_size=64):
            batch_lengths = [lengths[i] for i in batch]
            assert max(batch_lengths) - min(batch_lengths) < 8

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.one_of(
            st.lists(st.integers(1, 40), max_size=40),
            st.lists(st.integers(1, 3000), max_size=3000),
            st.integers(1, 3000).flatmap(lambda length: st.lists(
                st.just(length), max_size=200)),
        ),
        max_batch_size=st.one_of(st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65]),
                                 st.integers(1, 3001)),
    )
    def test_plan_equals_the_numpy_planner(self, lengths, max_batch_size):
        plan = plan_batches(lengths, max_batch_size)
        expected = plan_batches_reference(lengths, max_batch_size)
        assert all(type(batch) is list for batch in plan)
        assert plan == [want.tolist() for want in expected]

    def test_plan_equals_the_numpy_planner_at_batch_size_edges(self):
        lengths = [1, 8, 9, 16, 17, 25, 3000, 8, 1] * 15
        for max_batch_size in (1, 8, 14, 15, 16, 64, len(lengths) - 1,
                               len(lengths), len(lengths) + 1):
            plan = plan_batches(lengths, max_batch_size)
            expected = plan_batches_reference(lengths, max_batch_size)
            assert plan == [want.tolist() for want in expected]

    def test_buckets_in_length_order_then_arrival_order(self):
        plan = plan_batches([9, 1, 5, 17, 2, 7, 10], max_batch_size=2)
        assert plan == [[1, 2], [4, 5], [0, 6], [3]]

    def test_empty_request_plans_no_batches(self):
        assert plan_batches([], max_batch_size=4) == []

    @pytest.mark.parametrize("max_batch_size", [-1, 0, 2.0, 2.5, "4", True, None])
    def test_bad_max_batch_size_rejected(self, max_batch_size):
        # -1 used to plan no batches (dropping every path) and 0 failed
        # inside range().
        with pytest.raises(ValueError, match="max_batch_size"):
            plan_batches([3, 5, 12], max_batch_size)

    @pytest.mark.parametrize("lengths", [[3, 0, 12], [-2], [5, -2, 0]])
    def test_lengths_below_one_rejected(self, lengths):
        # They used to be bucketed silently.
        with pytest.raises(ValueError, match="lengths"):
            plan_batches(lengths, 4)

    def test_full_bucket_splits_into_max_size_chunks_in_arrival_order(self):
        plan = plan_batches([3] * 130, max_batch_size=64)
        assert [len(batch) for batch in plan] == [64, 64, 2]
        assert [index for batch in plan for index in batch] == list(range(130))


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

    def __init__(self):
        self.calls = []

    def encode(self, temporal_paths):
        self.calls.append(len(temporal_paths))
        return np.array([[len(tp), tp.departure_time.seconds]
                         for tp in temporal_paths], dtype=np.float64)


class TestServiceBookkeeping:
    def test_served_matrix_is_a_writable_copy_of_read_only_cache_rows(self, tiny_city):
        service = PathEmbeddingService(CountingModel())
        paths = tiny_city.unlabeled.temporal_paths[:3]
        first = service.embed(paths)
        hits = service.embed(paths[:1])          # a lone cached row
        assert service.cache.hits == 1
        assert not service.cache.get(cache_key(paths[0])).flags.writeable
        for result in (first, hits):
            assert result.flags.writeable and result.flags.owndata
            result[:] = -1.0
        np.testing.assert_array_equal(service.embed(paths), CountingModel().encode(paths))

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


class TestModelCall:
    def test_each_micro_batch_is_one_encode_call(self, tiny_city, monkeypatch):
        """The service hands each micro-batch whole to ``model.encode`` and
        passes it nothing else."""
        monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", 4)
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:10]
        service.embed(paths)
        assert sum(model.calls) == len({cache_key(tp) for tp in paths})
        assert max(model.calls) <= 4
        assert service.scrape()["batches"] == len(model.calls)
