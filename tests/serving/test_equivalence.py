"""Golden equivalence suite for the path-embedding service.

The service must be a pure optimisation: for every micro-batch size, cache
size and cache state, its output must match one-at-a-time ``WSCModel.embed``
calls to 1e-10 on a seeded synthetic dataset.  Tests that need small
micro-batches or caches patch the service module's ``_MAX_BATCH_SIZE`` or
``_CACHE_CAPACITY``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WSCModel
from repro.serving import PathEmbeddingService, service as service_module

TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def model(tiny_city, tiny_config, shared_resources):
    return WSCModel(tiny_city.network, tiny_config, resources=shared_resources)


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
    return np.stack([model.embed([tp])[0] for tp in workload], axis=0)


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
    np.testing.assert_allclose(service.represent(workload[0]),
                               golden[0], atol=TOLERANCE)
    empty = service.embed([])
    assert empty.shape == (0, model.representation_dim)


def test_transformer_backend_equivalence(tiny_city, tiny_config, shared_resources,
                                         monkeypatch):
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", 5)
    model = WSCModel(tiny_city.network, tiny_config, resources=shared_resources,
                     encoder_type="transformer")
    paths = list(tiny_city.unlabeled.temporal_paths[:12])
    golden = np.stack([model.embed([tp])[0] for tp in paths], axis=0)
    service = PathEmbeddingService(model)
    np.testing.assert_allclose(service.embed(paths), golden, atol=TOLERANCE)


def test_baseline_encoder_through_shared_interface(tiny_city, shared_resources,
                                                   monkeypatch):
    from repro.baselines import SpatialSequenceEncoder

    encoder = SpatialSequenceEncoder(
        tiny_city.network,
        topology_features=shared_resources.topology_features)
    paths = list(tiny_city.unlabeled.temporal_paths[:10])
    golden = np.stack([encoder.encode([tp])[0] for tp in paths], axis=0)
    monkeypatch.setattr(service_module, "_MAX_BATCH_SIZE", 4)
    service = PathEmbeddingService(encoder)
    np.testing.assert_allclose(service.embed(paths), golden, atol=TOLERANCE)
