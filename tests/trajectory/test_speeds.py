"""Tests for the congestion profile and time-dependent speed model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.temporal import DepartureTime
from repro.trajectory import CongestionProfile, SpeedModel


class TestCongestionProfile:
    @pytest.fixture()
    def profile(self):
        return CongestionProfile()

    def test_levels_in_unit_interval(self, profile):
        for day in range(7):
            for hour in np.linspace(0, 23.9, 30):
                level = profile.level(DepartureTime.from_hour(day, float(hour)))
                assert 0.0 <= level <= 1.0

    def test_weekday_morning_peak_above_night(self, profile):
        peak = profile.level(DepartureTime.from_hour(1, 8.0))
        night = profile.level(DepartureTime.from_hour(1, 3.0))
        assert peak > night + 0.2

    def test_weekday_afternoon_peak_above_midday(self, profile):
        afternoon = profile.level(DepartureTime.from_hour(2, 17.5))
        midday = profile.level(DepartureTime.from_hour(2, 12.0))
        assert afternoon > midday

    def test_weekend_calmer_than_weekday_peak(self, profile):
        weekday_peak = profile.level(DepartureTime.from_hour(0, 8.0))
        weekend_same_time = profile.level(DepartureTime.from_hour(6, 8.0))
        assert weekend_same_time < weekday_peak

    def test_profile_is_callable(self, profile):
        t = DepartureTime.from_hour(0, 8.0)
        assert profile(t) == profile.level(t)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CongestionProfile(peak_width_hours=0.0)

    @pytest.mark.parametrize("name", [
        "morning_peak_hour", "afternoon_peak_hour", "morning_intensity",
        "afternoon_intensity", "weekend_intensity", "peak_width_hours"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True])
    def test_rejects_non_finite_negative_and_bool_values(self, name, value):
        # A NaN width made level() NaN, which the TCI labeler read as its
        # top label.
        with pytest.raises(ValueError, match=name):
            CongestionProfile(**{name: value})


class TestSpeedModel:
    @pytest.fixture(scope="class")
    def model(self, tiny_network):
        return SpeedModel(tiny_network, seed=0)

    def test_speed_positive_and_below_limit(self, model, tiny_network):
        t = DepartureTime.from_hour(0, 8.0)
        for edge in range(tiny_network.num_edges):
            speed = model.edge_speed(edge, t)
            assert 0 < speed <= tiny_network.edge_features(edge).speed_limit

    def test_peak_slower_than_offpeak(self, model, tiny_network):
        peak = DepartureTime.from_hour(0, 8.0)
        off = DepartureTime.from_hour(0, 3.0)
        slower = sum(
            model.edge_speed(e, peak) < model.edge_speed(e, off)
            for e in range(tiny_network.num_edges)
        )
        assert slower == tiny_network.num_edges

    def test_travel_time_consistent_with_speed(self, model, tiny_network):
        t = DepartureTime.from_hour(2, 10.0)
        edge = 0
        expected = tiny_network.edge_length(edge) / (model.edge_speed(edge, t) / 3.6)
        assert model.edge_travel_time(edge, t) == pytest.approx(expected)

    def test_path_travel_time_additive_and_positive(self, model, tiny_network):
        t = DepartureTime.from_hour(1, 9.0)
        path = list(tiny_network.out_edges(0))[:1]
        next_edges = tiny_network.out_edges(tiny_network.edge_endpoints(path[0])[1])
        path.append(next_edges[0])
        total = model.path_travel_time(path, t)
        assert total > 0
        assert total >= model.edge_travel_time(path[0], t) * 0.5

    def test_path_peak_travel_time_longer(self, model, tiny_network):
        """The same path takes longer at 8am than at 3am - the paper's Fig. 1."""
        path = []
        node = 0
        for _ in range(4):
            edges = tiny_network.out_edges(node)
            if not edges:
                break
            path.append(edges[0])
            node = tiny_network.edge_endpoints(edges[0])[1]
        peak = model.path_travel_time(path, DepartureTime.from_hour(1, 8.0))
        night = model.path_travel_time(path, DepartureTime.from_hour(1, 3.0))
        assert peak > night

    def test_noise_reproducible_with_rng(self, model, tiny_network):
        t = DepartureTime.from_hour(0, 12.0)
        a = model.edge_travel_time(0, t, rng=np.random.default_rng(5))
        b = model.edge_travel_time(0, t, rng=np.random.default_rng(5))
        assert a == pytest.approx(b)

    def test_congestion_level_exposed(self, model):
        level = model.congestion_level(DepartureTime.from_hour(0, 8.0))
        assert 0.0 <= level <= 1.0

    @pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf"), True])
    def test_rejects_invalid_noise_std(self, tiny_network, noise_std):
        # A negative or NaN spread used to price silently without noise.
        with pytest.raises(ValueError, match="noise_std"):
            SpeedModel(tiny_network, noise_std=noise_std)

    @pytest.mark.parametrize("bad", [-1, "edges", 1.0, True, None])
    def test_rejects_edge_ids_outside_the_network(self, model, tiny_network, bad):
        # [-1] used to price the last edge.
        bad = tiny_network.num_edges if bad == "edges" else bad
        t = DepartureTime.from_hour(0, 8.0)
        with pytest.raises(ValueError, match="edge id"):
            model.path_travel_time([bad], t)

    def test_bad_edge_id_is_caught_before_any_noise_draw(self, model):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="edge id"):
            model.edge_travel_times([0, 1, -1], DepartureTime.from_hour(0, 8.0), rng=rng)
        assert rng.bit_generator.state == state

    def test_noisy_walk_draws_once_per_edge_in_path_order(self, model):
        t = DepartureTime.from_hour(0, 8.0)
        walked = model.edge_travel_times([0, 1, 2], t, rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        clock, expected = t, []
        for edge in (0, 1, 2):
            expected.append(model.edge_travel_time(edge, clock, rng=rng))
            clock = clock.shift(expected[-1])
        assert walked == expected


class _StubFeatures:
    def __init__(self, road_type, speed_limit=50.0):
        self.road_type = road_type
        self.speed_limit = speed_limit


class _StubNetwork:
    """Minimal network exposing an out-of-vocabulary road type."""

    num_edges = 2

    def __init__(self):
        self._features = [_StubFeatures("residential"), _StubFeatures("footway")]

    def edge_features(self, edge_id):
        return self._features[edge_id]

    def edge_length(self, edge_id):
        return 100.0

    def edge_lengths(self):
        return np.full(self.num_edges, 100.0)


class TestUnknownRoadTypeFallback:
    """SpeedModel must not raise a bare KeyError on unseen road types."""

    def test_unknown_road_type_uses_default_sensitivity(self):
        from repro.trajectory import DEFAULT_CONGESTION_SENSITIVITY

        model = SpeedModel(_StubNetwork(), seed=0)
        # The jitter multiplier is in [0.85, 1.15], so the fallback edge's
        # sensitivity must sit in the corresponding band around the default.
        sensitivity = model._sensitivity[1]
        assert DEFAULT_CONGESTION_SENSITIVITY * 0.85 <= sensitivity
        assert sensitivity <= DEFAULT_CONGESTION_SENSITIVITY * 1.15

    def test_unknown_road_type_prices_normally(self):
        model = SpeedModel(_StubNetwork(), seed=0)
        t = DepartureTime.from_hour(0, 8.0)
        speed = model.edge_speed(1, t)
        assert 0 < speed <= 50.0
        assert model.edge_travel_time(1, t) > 0
