"""Golden equivalence suite for the path-embedding service.

The service must be a pure optimisation: for every micro-batch size, cache
size and cache state, its output must match one-at-a-time ``model.encode``
calls to 1e-10 on a seeded synthetic dataset, and each row must be
byte-identical to ``model.encode`` of the micro-batch it was planned into.
Tests that need small micro-batches or caches patch the service module's
``_MAX_BATCH_SIZE`` or ``_CACHE_CAPACITY``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import PathEmbeddingService, plan_batches, service as service_module

TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def model(shared_resources):
    return shared_resources.new_encoder()


@pytest.fixture(scope="module")
def workload(tiny_city):
    """A request mixing path lengths, duplicates and shuffled order."""
    paths = list(tiny_city.unlabeled.temporal_paths[:24])
    rng = np.random.default_rng(7)
    # Inject duplicates so caching/deduplication paths are exercised.
    paths = paths + [paths[i] for i in rng.integers(0, len(paths), size=8)]
    rng.shuffle(paths)
    return paths


@pytest.fixture(scope="module")
def golden(model, workload):
    """One-at-a-time reference embeddings, in request order."""
    return np.stack([model.encode([tp])[0] for tp in workload], axis=0)


@pytest.mark.parametrize("cache_capacity", [1, 5, 4096])
@pytest.mark.parametrize("max_batch_size", [3, 8])
def test_service_matches_per_path_embedding(model, workload, golden,
                                            max_batch_size, cache_capacity,
                                            monkeypatch):
    """Small caches evict entries within a request; rows must not suffer."""
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", max_batch_size)
    monkeypatch.setattr(service_module, "_CACHE_CAPACITY", cache_capacity)
    service = PathEmbeddingService(model)
    for _ in range(2):
        served = service.embed(workload)
        assert served.shape == golden.shape
        np.testing.assert_allclose(served, golden, atol=TOLERANCE)
    distinct = len({service_module.cache_key(tp) for tp in workload})
    assert len(service.cache) == min(cache_capacity, distinct)


@pytest.mark.parametrize("max_batch_size", [1, 3, 64])
def test_service_matches_across_batch_sizes(model, workload, golden,
                                            max_batch_size, monkeypatch):
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", max_batch_size)
    service = PathEmbeddingService(model)
    np.testing.assert_allclose(service.embed(workload), golden, atol=TOLERANCE)


@pytest.mark.parametrize("max_batch_size", [1, 3, 8, 64])
def test_served_rows_are_their_micro_batch_rows_byte_for_byte(model, workload,
                                                              max_batch_size,
                                                              monkeypatch):
    """The exact invariant: a row is ``model.encode`` of its planned
    micro-batch, bit for bit; only the 1e-10 checks above span batch sizes."""
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", max_batch_size)
    service = PathEmbeddingService(model)
    cold = service.embed(workload)
    hot = service.embed(workload)
    first = {}
    for tp in workload:
        first.setdefault(service_module.cache_key(tp), tp)
    misses = list(first.values())
    expected = {}
    for batch in plan_batches([len(tp) for tp in misses], max_batch_size):
        paths = [misses[i] for i in batch]
        for tp, row in zip(paths, model.encode(paths)):
            expected[service_module.cache_key(tp)] = row
    for position, tp in enumerate(workload):
        want = expected[service_module.cache_key(tp)].tobytes()
        assert cold[position].tobytes() == want
        assert hot[position].tobytes() == want


def test_hot_cache_matches_cold_cache(model, workload, golden):
    service = PathEmbeddingService(model)
    cold = service.embed(workload)
    hot = service.embed(workload)
    np.testing.assert_allclose(cold, golden, atol=TOLERANCE)
    np.testing.assert_allclose(hot, golden, atol=TOLERANCE)
    # The second pass must be served entirely from the cache.
    assert service.cache.hits >= len(workload)


def test_request_order_is_preserved(model, workload):
    service = PathEmbeddingService(model)
    forward = service.embed(workload)
    reversed_out = service.embed(list(reversed(workload)))
    np.testing.assert_allclose(forward, reversed_out[::-1], atol=TOLERANCE)


def test_single_path_and_empty_requests(model, workload, golden):
    service = PathEmbeddingService(model)
    np.testing.assert_allclose(service.embed([workload[0]])[0],
                               golden[0], atol=TOLERANCE)
    empty = service.embed([])
    assert empty.shape == (0, model.output_dim)


def test_baseline_encoder_through_shared_interface(tiny_city, monkeypatch):
    from repro.baselines import SpatialSequenceEncoder

    encoder = SpatialSequenceEncoder(tiny_city.network)
    paths = list(tiny_city.unlabeled.temporal_paths[:10])
    golden = np.stack([encoder.encode([tp])[0] for tp in paths], axis=0)
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", 4)
    service = PathEmbeddingService(encoder)
    np.testing.assert_allclose(service.embed(paths), golden, atol=TOLERANCE)


def _fitted_families(tiny_city):
    """One fitted model of every family the service fronts, by name."""
    from repro.core import WSCCL
    from repro.evaluation import (
        SUPERVISED_BASELINES,
        UNSUPERVISED_BASELINES,
        HarnessConfig,
        build_supervised_baseline,
        fit_unsupervised_baseline,
    )

    config = HarnessConfig()
    models = {name: fit_unsupervised_baseline(name, tiny_city, config)
              for name in UNSUPERVISED_BASELINES + ("PIM-Temporal",)}
    models.update({name: build_supervised_baseline(name, config).fit(tiny_city)
                   for name in SUPERVISED_BASELINES})
    models["WSCCL"] = WSCCL(tiny_city.network, config=config.wsccl)
    models["TemporalPathEncoder"] = models["WSCCL"].model
    return models


def test_empty_request_has_the_model_width_for_every_family(tiny_city):
    path = tiny_city.unlabeled.temporal_paths[:1]
    for name, model in _fitted_families(tiny_city).items():
        width = model.encode(path).shape[1]
        empty = PathEmbeddingService(model).embed([])
        assert empty.shape == (0, width), name
        assert empty.dtype == np.float64, name
