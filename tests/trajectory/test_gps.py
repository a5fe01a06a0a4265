"""Tests for GPS trajectory synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.temporal import DepartureTime
from repro.trajectory import GPSSampler, SpeedModel


def build_path(network, hops=4):
    path = []
    node = 0
    for _ in range(hops):
        edges = network.out_edges(node)
        if not edges:
            break
        path.append(edges[0])
        node = network.edge_endpoints(edges[0])[1]
    return path


class TestGPSSampler:
    @pytest.fixture(scope="class")
    def sampler(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        return GPSSampler(tiny_network, speed_model, sample_interval=10.0,
                          noise_std=5.0, seed=0)

    def test_trajectory_has_points_and_truth(self, sampler, tiny_network):
        path = build_path(tiny_network)
        trajectory = sampler.sample(path, DepartureTime.from_hour(0, 9.0))
        assert len(trajectory) >= 2
        assert trajectory.true_path == path

    def test_timestamps_monotonic(self, sampler, tiny_network):
        path = build_path(tiny_network)
        trajectory = sampler.sample(path, DepartureTime.from_hour(0, 10.0))
        timestamps = [p.timestamp for p in trajectory]
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))

    def test_duration_close_to_travel_time(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0, noise_std=0.0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=5.0,
                             noise_std=0.0, seed=0)
        path = build_path(tiny_network)
        departure = DepartureTime.from_hour(0, 7.0)
        trajectory = sampler.sample(path, departure)
        expected = speed_model.path_travel_time(path, departure)
        duration = trajectory.points[-1].timestamp - trajectory.points[0].timestamp
        assert duration == pytest.approx(expected, rel=0.05)

    def test_points_near_path_geometry(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0, noise_std=0.0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=5.0,
                             noise_std=0.0, seed=0)
        path = build_path(tiny_network)
        trajectory = sampler.sample(path, DepartureTime.from_hour(0, 7.0))
        positions = trajectory.positions()
        # Without noise, every point must lie within the bounding box of the
        # path's node coordinates (straight-line edges).
        nodes = {node for edge in path for node in tiny_network.edge_endpoints(edge)}
        coords = np.array([tiny_network.node_coordinates(n) for n in nodes])
        margin = 1.0
        assert (positions[:, 0] >= coords[:, 0].min() - margin).all()
        assert (positions[:, 0] <= coords[:, 0].max() + margin).all()

    def test_sampling_rate_controls_point_count(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        dense = GPSSampler(tiny_network, speed_model, sample_interval=2.0, seed=0)
        sparse = GPSSampler(tiny_network, speed_model, sample_interval=30.0, seed=0)
        path = build_path(tiny_network)
        departure = DepartureTime.from_hour(0, 9.0)
        assert len(dense.sample(path, departure)) > len(sparse.sample(path, departure))

    def test_invalid_parameters(self, tiny_network):
        speed_model = SpeedModel(tiny_network)
        with pytest.raises(ValueError):
            GPSSampler(tiny_network, speed_model, sample_interval=0.0)
        with pytest.raises(ValueError):
            GPSSampler(tiny_network, speed_model, noise_std=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("sample_interval", float("nan")), ("sample_interval", float("inf")),
        ("sample_interval", True), ("noise_std", float("nan")),
        ("noise_std", float("inf")), ("noise_std", True)])
    def test_rejects_non_finite_and_bool_parameters(self, tiny_network, name, value):
        # A NaN or infinite interval gave 2-fix traces; a NaN noise gave NaN fixes.
        with pytest.raises(ValueError, match=name):
            GPSSampler(tiny_network, SpeedModel(tiny_network), **{name: value})

    def test_rejects_edge_ids_outside_the_network(self, sampler, tiny_network):
        with pytest.raises(ValueError, match="edge id"):
            sampler.sample([0, tiny_network.num_edges], DepartureTime.from_hour(0, 9.0))

    def test_empty_path_raises_value_error(self, sampler):
        with pytest.raises(ValueError, match="empty path"):
            sampler.sample([], DepartureTime.from_hour(0, 9.0))

    def test_no_duplicate_fix_when_duration_is_exact_multiple(self, tiny_network):
        """total_time % sample_interval == 0 must not emit two final fixes."""

        class ConstantSpeedModel(SpeedModel):
            def edge_travel_time(self, edge, clock, rng=None):
                return 10.0

        sampler = GPSSampler(tiny_network, ConstantSpeedModel(tiny_network),
                             sample_interval=10.0, noise_std=0.0, seed=0)
        path = build_path(tiny_network, hops=3)
        trajectory = sampler.sample(path, DepartureTime.from_hour(0, 9.0))
        timestamps = [p.timestamp for p in trajectory]
        # 3 edges x 10 s at a 10 s interval: fixes at 0, 10, 20 plus the
        # final fix at 30 — not a duplicated pair at t = 30.
        assert timestamps == [0.0, 10.0, 20.0, 30.0]
        assert all(b > a for a, b in zip(timestamps, timestamps[1:]))

    def test_final_fix_still_appended_for_short_paths(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0, noise_std=0.0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=1e6,
                             noise_std=0.0, seed=0)
        path = build_path(tiny_network, hops=1)
        trajectory = sampler.sample(path, DepartureTime.from_hour(0, 9.0))
        assert len(trajectory) == 2
        assert trajectory.points[0].timestamp == 0.0
