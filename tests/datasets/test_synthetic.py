"""Tests for the synthetic city dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import DatasetScale, build_city_dataset, minibatch_indices
from repro.temporal import PeakOffPeakLabeler


class TestDatasetScale:
    def test_presets_increase_in_size(self):
        tiny, small, medium = DatasetScale.tiny(), DatasetScale.small(), DatasetScale.medium()
        assert tiny.num_trips < small.num_trips < medium.num_trips
        assert tiny.grid_rows <= small.grid_rows <= medium.grid_rows


class TestBuildCityDataset:
    def test_unknown_city_rejected(self):
        with pytest.raises(KeyError):
            build_city_dataset("atlantis")

    def test_tiny_city_contents(self, tiny_city):
        assert tiny_city.name == "aalborg"
        assert tiny_city.network.num_nodes > 0
        assert len(tiny_city.trips) == len(tiny_city.unlabeled)
        assert len(tiny_city.tasks.travel_time) <= len(tiny_city.trips)

    def test_paths_live_on_the_network(self, tiny_city):
        for tp in tiny_city.unlabeled.temporal_paths:
            assert max(tp.path) < tiny_city.network.num_edges
            assert tiny_city.network.is_connected_path(list(tp.path))

    def test_weak_label_distribution_nondegenerate(self, tiny_city):
        distribution = tiny_city.unlabeled.label_distribution()
        # The corpus must contain at least peak and off-peak paths for
        # contrastive learning to have signal.
        assert len(distribution) >= 2

    def test_statistics_table_fields(self, tiny_city):
        stats = tiny_city.statistics()
        for key in ("name", "num_nodes", "num_edges", "unlabeled_paths", "labeled_paths"):
            assert key in stats

    def test_pop_and_tci_labelers_attached(self, tiny_city):
        assert isinstance(tiny_city.pop_labeler, PeakOffPeakLabeler)
        assert tiny_city.tci_labeler.num_labels == 4

    def test_cities_differ_in_structure(self, tiny_city, tiny_city_harbin):
        assert tiny_city.network.num_edges != tiny_city_harbin.network.num_edges or \
            len(tiny_city.trips) != len(tiny_city_harbin.trips) or \
            tiny_city.name != tiny_city_harbin.name

    def test_deterministic_rebuild(self):
        a = build_city_dataset("aalborg", scale=DatasetScale.tiny())
        b = build_city_dataset("aalborg", scale=DatasetScale.tiny())
        assert a.network.num_edges == b.network.num_edges
        assert len(a.trips) == len(b.trips)
        np.testing.assert_allclose(
            [t.travel_time for t in a.trips], [t.travel_time for t in b.trips])


class TestMapMatchedPaths:
    @pytest.fixture(scope="class")
    def mapmatched_city(self):
        return build_city_dataset("aalborg", scale=DatasetScale.tiny(),
                                  paths_from="mapmatched")

    def test_invalid_paths_from_rejected(self):
        with pytest.raises(ValueError, match="paths_from"):
            build_city_dataset("aalborg", scale=DatasetScale.tiny(),
                               paths_from="oracle")

    def test_corpus_sizes_match_simulator_build(self, mapmatched_city, tiny_city):
        assert len(mapmatched_city.trips) == len(tiny_city.trips)
        assert len(mapmatched_city.unlabeled) == len(tiny_city.unlabeled)
        assert (len(mapmatched_city.tasks.travel_time)
                == len(tiny_city.tasks.travel_time))

    def test_recovered_paths_live_on_the_network(self, mapmatched_city):
        for tp in mapmatched_city.unlabeled.temporal_paths:
            assert len(tp.path) >= 1
            assert max(tp.path) < mapmatched_city.network.num_edges
            assert mapmatched_city.network.is_connected_path(list(tp.path))

    def test_corpus_feeds_contrastive_minibatches(self, mapmatched_city):
        assert len(mapmatched_city.unlabeled) > 0
        assert mapmatched_city.tasks.travel_time
        corpus = mapmatched_city.unlabeled
        batches = [[corpus[i] for i in indices] for indices in
                   minibatch_indices(len(corpus), 4, np.random.default_rng(0))]
        assert batches

    def test_gps_noise_actually_flows_into_the_corpus(self, mapmatched_city,
                                                      tiny_city):
        """Map matching noisy GPS must change at least some corpus paths."""
        differing = sum(
            1 for matched, truth in zip(mapmatched_city.trips, tiny_city.trips)
            if list(matched.path) != list(truth.path))
        assert differing > 0

    def test_departure_times_and_labels_preserved(self, mapmatched_city,
                                                  tiny_city):
        for matched, truth in zip(mapmatched_city.trips, tiny_city.trips):
            assert matched.departure_time == truth.departure_time
            assert matched.travel_time == truth.travel_time
            assert (matched.origin, matched.destination) == (truth.origin,
                                                             truth.destination)

    def test_deterministic_rebuild(self, mapmatched_city):
        rebuilt = build_city_dataset("aalborg", scale=DatasetScale.tiny(),
                                     paths_from="mapmatched")
        assert ([list(t.path) for t in rebuilt.trips]
                == [list(t.path) for t in mapmatched_city.trips])
