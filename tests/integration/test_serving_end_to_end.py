"""End-to-end serving test: train a tiny model, serve the three downstream
tasks through the :class:`~repro.serving.PathEmbeddingService`, and check the
metrics are identical to the direct (unserved) evaluation path."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.downstream.tasks as downstream_tasks
import repro.evaluation.harness as harness
from repro.core import WSCCL
from repro.evaluation import HarnessConfig, representation_task_results
from repro.serving import PathEmbeddingService

ALL_TASKS = ("travel_time", "ranking", "recommendation")


@pytest.fixture(scope="module")
def trained_model(tiny_city, tiny_config, shared_resources):
    """A tiny trained WSCCL model shared by the serving integration tests."""
    model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
    model.fit(tiny_city.unlabeled, batches_per_epoch=2, expert_batches=1)
    return model


def _all_task_rows(model, tiny_city):
    return representation_task_results(
        model, tiny_city, HarnessConfig(n_estimators=10), tasks=ALL_TASKS)


class TestServingEndToEnd:
    def test_served_tasks_match_direct_evaluation(self, trained_model, tiny_city,
                                                  monkeypatch):
        served = _all_task_rows(trained_model, tiny_city)
        # Direct path: the evaluators' ``embed`` is the trained encoder's
        # ``encode``, without batching or caching.
        for module in (harness, downstream_tasks):
            monkeypatch.setattr(module, "ensure_service", lambda model: SimpleNamespace(
                embed=model.encode, encode=model.encode))
        direct = _all_task_rows(trained_model.model, tiny_city)
        assert direct == served

    def test_service_metrics_reflect_the_evaluation_traffic(
            self, trained_model, tiny_city):
        service = PathEmbeddingService(trained_model)
        _all_task_rows(service, tiny_city)
        scraped = service.scrape()

        total_examples = (len(tiny_city.tasks.travel_time)
                          + len(tiny_city.tasks.ranking)
                          + len(tiny_city.tasks.recommendation))
        assert scraped["paths_served"] == total_examples
        assert scraped["requests"] == 6          # train + test encode per task
        assert scraped["throughput_paths_per_s"] > 0
        assert 0.0 < scraped["padding_efficiency"] <= 1.0
        assert scraped["cache_hits"] + scraped["cache_misses"] >= total_examples
        # Task datasets reuse underlying paths, so the shared cache must see
        # at least some cross-task hits.
        assert scraped["cache_hits"] > 0

    def test_served_embeddings_finite_and_correct_shape(self, trained_model, tiny_city):
        service = PathEmbeddingService(trained_model)
        paths = tiny_city.unlabeled.temporal_paths
        served = service.embed(paths)
        assert served.shape == (len(paths), trained_model.model.output_dim)
        assert np.isfinite(served).all()
