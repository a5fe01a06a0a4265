"""Integration tests: the full pipeline from raw substrate to table rows."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import WSCCL
from repro.datasets import DatasetScale
from repro.evaluation import (
    HarnessConfig,
    fit_unsupervised_baseline,
    fit_wsccl,
    format_nested_results,
    representation_task_results,
    run_table6_ablation,
)
from repro.temporal import DepartureTime
from repro.trajectory import GPSSampler, HMMMapMatcher, SpeedModel, TripSimulator


@pytest.fixture(scope="module")
def fast_config():
    """Harness config kept compatible with the shared test-scale resources."""
    from repro.core import WSCCLConfig

    config = HarnessConfig.benchmark()
    return dataclasses.replace(
        config,
        scale=DatasetScale.tiny(),
        max_batches=2,
        n_estimators=8,
        wsccl=WSCCLConfig.test_scale().with_overrides(
            epochs=1, num_meta_sets=2, num_stages=2),
    )


class TestDataPipeline:
    def test_gps_to_path_pipeline(self, tiny_city):
        """Simulate a trip, emit GPS, map-match, and recover a usable path —
        the full data pipeline the paper's corpora went through."""
        network = tiny_city.network
        speed_model = SpeedModel(network, seed=3, noise_std=0.0)
        simulator = TripSimulator(network, speed_model=speed_model, seed=3, min_trip_edges=3)
        trip = simulator.simulate_trip(departure_time=DepartureTime.from_hour(1, 9.0))
        assert trip is not None

        sampler = GPSSampler(network, speed_model, sample_interval=8.0, noise_std=4.0, seed=3)
        trajectory = sampler.sample(trip.path, trip.departure_time)
        matcher = HMMMapMatcher(network, emission_sigma=10.0)
        matched = matcher.match(trajectory)

        assert matched
        assert network.is_connected_path(matched)
        overlap = len(set(trip.path) & set(matched)) / len(set(trip.path))
        assert overlap > 0.3


class TestWSCCLPipeline:
    def test_train_encode_evaluate(self, tiny_city, tiny_config, shared_resources):
        """WSCCL end to end: unsupervised fit, frozen TPRs, all three tasks."""
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit(tiny_city.unlabeled, batches_per_epoch=2, expert_batches=1)

        reps = model.encode(tiny_city.unlabeled.temporal_paths)
        assert reps.shape == (len(tiny_city.unlabeled), model.model.output_dim)
        assert np.isfinite(reps).all()

        results = representation_task_results(
            model, tiny_city, HarnessConfig(n_estimators=10),
            tasks=("travel_time", "ranking", "recommendation"))
        assert results["travel_time"]["MAE"] > 0
        assert -1 <= results["ranking"]["tau"] <= 1
        assert 0 <= results["recommendation"]["Acc"] <= 1

    def test_wsccl_representations_encode_path_identity(self, tiny_city, tiny_config,
                                                        shared_resources):
        """The contrastive objective pulls together views of the same path with
        the same weak label, so after training, same-path pairs must be more
        similar than different-path pairs on average."""
        wsccl = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        wsccl.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=4)

        from repro.core.sampling import augment_with_positive_views

        rng = np.random.default_rng(0)
        samples = list(tiny_city.unlabeled)[:10]
        augmented = augment_with_positive_views(
            samples, tiny_city.unlabeled.weak_labeler, rng)
        originals = [tp for tp, _ in augmented[:len(samples)]]
        views = [tp for tp, _ in augmented[len(samples):]]

        original_reps = wsccl.encode(originals)
        view_reps = wsccl.encode(views)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        same_path = np.mean([cosine(original_reps[i], view_reps[i])
                             for i in range(len(samples))])
        cross_path = np.mean([cosine(original_reps[i], view_reps[(i + 3) % len(samples)])
                              for i in range(len(samples))])
        assert same_path > cross_path


class TestHarnessIntegration:
    def test_baseline_and_wsccl_share_the_same_harness(self, fast_config, tiny_city,
                                                       shared_resources):
        baseline = fit_unsupervised_baseline("PIM", tiny_city, fast_config)
        wsccl = fit_wsccl(tiny_city, fast_config, variant="no_cl",
                          resources=shared_resources)
        baseline_rows = representation_task_results(baseline, tiny_city, fast_config)
        wsccl_rows = representation_task_results(wsccl, tiny_city, fast_config)
        assert set(baseline_rows) == set(wsccl_rows) == {"travel_time", "ranking"}

    def test_table6_runner_and_formatting(self, fast_config):
        results = run_table6_ablation(fast_config)
        text = format_nested_results(results, title="Table VI")
        assert "WSCCL" in text
        assert "w/o Global" in text
        assert "travel_time.MAE" in text
