"""Tests for the evaluation harness (table runners)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import DatasetScale
from repro.evaluation import (
    EDGE_SUM_BASELINES,
    SUPERVISED_BASELINES,
    UNSUPERVISED_BASELINES,
    HarnessConfig,
    build_dataset,
    build_supervised_baseline,
    fit_unsupervised_baseline,
    fit_wsccl,
    representation_task_results,
    run_fig7_pretraining,
    run_table2_dataset_statistics,
    run_table5_curriculum_design,
    run_table8_temporal,
    run_table11_lambda,
    supervised_travel_time_results,
)


@pytest.fixture(scope="module")
def fast_config():
    """An even smaller harness config so table runners finish quickly in tests.

    The WSCCL config is derived from ``test_scale`` so it stays compatible
    with the session-scoped ``shared_resources`` fixture (same embedding
    dimensions and temporal-graph granularity).
    """
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


class TestHarnessConfig:
    def test_presets_exist(self):
        assert HarnessConfig.benchmark().n_estimators > 0
        assert HarnessConfig.example().scale.num_trips > HarnessConfig.benchmark().scale.num_trips


class TestFactories:
    def test_build_dataset(self, fast_config):
        city = build_dataset("aalborg", fast_config)
        assert city.name == "aalborg"

    def test_fit_wsccl_variants(self, fast_config, tiny_city, shared_resources):
        for variant in ("no_cl", "heuristic"):
            model = fit_wsccl(tiny_city, fast_config, variant=variant,
                              resources=shared_resources)
            reps = model.encode(tiny_city.unlabeled.temporal_paths[:2])
            assert np.isfinite(reps).all()

    def test_fit_wsccl_rejects_unknown_variant(self, fast_config, tiny_city, shared_resources):
        with pytest.raises(ValueError):
            fit_wsccl(tiny_city, fast_config, variant="bogus", resources=shared_resources)

    def test_fit_wsccl_rejects_unknown_weak_labels(self, fast_config, tiny_city,
                                                   shared_resources):
        with pytest.raises(ValueError):
            fit_wsccl(tiny_city, fast_config, weak_labels="zodiac",
                      resources=shared_resources)

    @pytest.mark.parametrize("name", UNSUPERVISED_BASELINES + ("PIM-Temporal",))
    def test_fit_unsupervised_baseline_by_name(self, name, fast_config, tiny_city):
        model = fit_unsupervised_baseline(name, tiny_city, fast_config)
        reps = model.encode(tiny_city.unlabeled.temporal_paths[:2])
        assert reps.shape[0] == 2
        assert np.isfinite(reps).all()

    def test_fit_unsupervised_baseline_rejects_unknown_name(self, fast_config, tiny_city):
        with pytest.raises(KeyError):
            fit_unsupervised_baseline("NOPE", tiny_city, fast_config)

    @pytest.mark.parametrize("name", SUPERVISED_BASELINES + EDGE_SUM_BASELINES)
    def test_build_supervised_baseline_by_name(self, name, fast_config, tiny_city):
        model = build_supervised_baseline(name, fast_config)
        row = supervised_travel_time_results(model, tiny_city, fast_config)
        assert np.isfinite(list(row.values())).all()

    def test_build_supervised_baseline_rejects_unknown_name(self, fast_config):
        with pytest.raises(KeyError):
            build_supervised_baseline("NOPE", fast_config)

    def test_representation_task_results_shape(self, fast_config, tiny_city):
        model = fit_unsupervised_baseline("Node2vec", tiny_city, fast_config)
        results = representation_task_results(model, tiny_city, fast_config,
                                               tasks=("travel_time", "recommendation"))
        assert set(results) == {"travel_time", "recommendation"}
        assert "MAE" in results["travel_time"]
        assert "Acc" in results["recommendation"]

    def test_supervised_travel_time_results(self, fast_config, tiny_city):
        model = build_supervised_baseline("PathRank", fast_config)
        row = supervised_travel_time_results(model, tiny_city, fast_config)
        assert set(row) == {"MAE", "MARE", "MAPE"}
        assert np.isfinite(row["MAE"])


class TestTableRunners:
    def test_table2_statistics(self, fast_config):
        rows = run_table2_dataset_statistics(fast_config, cities=("aalborg",))
        assert "aalborg" in rows
        assert rows["aalborg"]["num_edges"] > 0

    def test_table5_has_both_rows(self, fast_config):
        results = run_table5_curriculum_design(fast_config)
        rows = results["aalborg"]
        assert set(rows) == {"Heuristic", "WSCCL"}
        for row in rows.values():
            assert "travel_time" in row and "ranking" in row

    def test_table8_has_both_variants(self, fast_config):
        results = run_table8_temporal(fast_config)
        assert set(results["aalborg"]) == {"WSCCL", "WSCCL-NT"}

    def test_table11_sweeps_lambda(self, fast_config):
        results = run_table11_lambda(fast_config, lambdas=(0.0, 0.8))
        assert set(results["aalborg"]) == {0.0, 0.8}

    def test_fig7_series_structure(self, fast_config):
        results = run_fig7_pretraining(fast_config, label_fractions=(1.0,))
        series = results["aalborg"]
        assert set(series) == {"scratch", "pretrained"}
        assert set(series["scratch"]) == {1.0}
        assert "travel_time" in series["scratch"][1.0]
