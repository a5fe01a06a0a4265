"""Tests for the trip simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.temporal import DepartureTime, PeakOffPeakLabeler
from repro.trajectory import SpeedModel, TripSimulator


class TestTripSimulator:
    @pytest.fixture(scope="class")
    def simulator(self, tiny_network):
        return TripSimulator(tiny_network, speed_model=SpeedModel(tiny_network, seed=0),
                             seed=0, min_trip_edges=2, max_trip_edges=30)

    def test_departure_times_valid(self, simulator):
        for _ in range(50):
            t = simulator.sample_departure_time()
            assert 0 <= t.day_of_week < 7
            assert 0 <= t.seconds < 86400

    def test_departure_times_cover_peaks_and_offpeak(self, simulator):
        labeler = PeakOffPeakLabeler()
        labels = {labeler(simulator.sample_departure_time()) for _ in range(300)}
        assert len(labels) == 3

    def test_simulated_trip_is_valid(self, simulator, tiny_network):
        trip = simulator.simulate_trip()
        assert trip is not None
        assert tiny_network.is_connected_path(trip.path)
        assert trip.travel_time > 0
        assert trip.origin != trip.destination

    def test_trip_path_connects_origin_to_destination(self, simulator, tiny_network):
        trip = simulator.simulate_trip()
        assert tiny_network.edge_endpoints(trip.path[0])[0] == trip.origin
        assert tiny_network.edge_endpoints(trip.path[-1])[1] == trip.destination

    def test_alternatives_share_endpoints(self, simulator, tiny_network):
        trip = simulator.simulate_trip()
        for alternative in trip.alternatives:
            assert tiny_network.edge_endpoints(alternative[0])[0] == trip.origin
            assert tiny_network.edge_endpoints(alternative[-1])[1] == trip.destination

    def test_simulate_produces_requested_count(self, simulator):
        trips = simulator.simulate(10)
        assert len(trips) == 10

    def test_travel_time_roughly_scales_with_length(self, simulator, tiny_network):
        trips = simulator.simulate(25)
        lengths = np.array([sum(map(tiny_network.edge_length, t.path)) for t in trips])
        times = np.array([t.travel_time for t in trips])
        correlation = np.corrcoef(lengths, times)[0, 1]
        assert correlation > 0.5

    def test_peak_travel_slower_for_fixed_od(self, tiny_network):
        """Same OD pair takes longer in the peak (what weak labels capture)."""
        simulator = TripSimulator(tiny_network,
                                  speed_model=SpeedModel(tiny_network, seed=1, noise_std=0.0),
                                  seed=1, min_trip_edges=2)
        origin, destination = 0, tiny_network.num_nodes - 1
        peak = simulator.simulate_trip(
            departure_time=DepartureTime.from_hour(1, 8.0),
            origin=origin, destination=destination)
        night = simulator.simulate_trip(
            departure_time=DepartureTime.from_hour(1, 3.0),
            origin=origin, destination=destination)
        assert peak is not None and night is not None
        assert peak.travel_time > night.travel_time


class TestInputChecks:
    @pytest.mark.parametrize("num_trips", [2.5, True, -1, None])
    def test_simulate_rejects_a_non_integer_or_negative_count(self, tiny_network, num_trips):
        # 2.5 used to return 3 trips, True 1 and -1 none.
        simulator = TripSimulator(tiny_network, seed=0, min_trip_edges=2)
        with pytest.raises(ValueError, match="num_trips"):
            simulator.simulate(num_trips)

    def test_simulate_zero_trips(self, tiny_network):
        assert TripSimulator(tiny_network, seed=0).simulate(0) == []

    @pytest.mark.parametrize("name, value", [
        ("min_trip_edges", 2.5), ("min_trip_edges", -1), ("max_trip_edges", True),
        ("max_trip_edges", 40.0), ("num_alternatives", -2), ("num_alternatives", False),
        ("route_choice_noise", float("nan")), ("route_choice_noise", float("inf")),
        ("route_choice_noise", -0.1), ("route_choice_noise", True)])
    def test_constructor_rejects_invalid_values(self, tiny_network, name, value):
        # num_alternatives=-2 used to fail deep in Yen's search, and a NaN
        # noise always picked the first candidate.
        with pytest.raises(ValueError, match=name):
            TripSimulator(tiny_network, **{name: value})

    def test_constructor_rejects_min_above_max_edges(self, tiny_network):
        with pytest.raises(ValueError, match="min_trip_edges"):
            TripSimulator(tiny_network, min_trip_edges=10, max_trip_edges=2)


class _ScriptedRNG:
    """Stand-in rng whose ``integers`` draws pop from a scripted sequence."""

    def __init__(self, values):
        self._values = list(values)

    def integers(self, low, high):
        return self._values.pop(0)


class TestSampleODPairRegression:
    """The distance-heuristic fallback must never emit origin == destination."""

    def test_degenerate_last_draw_falls_back_to_distinct_pair(self, tiny_network):
        simulator = TripSimulator(tiny_network, seed=0, min_trip_edges=4,
                                  max_trip_edges=40)
        # 49 degenerate draws, then one distinct-but-too-close pair that fails
        # the distance check, then... the budget is exhausted.  Before the
        # fix the final degenerate draw leaked out whenever the 50th attempt
        # sampled origin == destination.
        script = [0, 0] * 48 + [0, 1] + [2, 2]
        simulator.rng = _ScriptedRNG(script)
        origin, destination = simulator._sample_od_pair()
        assert (origin, destination) == (0, 1)

    def test_all_degenerate_draws_raise(self, tiny_network):
        simulator = TripSimulator(tiny_network, seed=0)
        simulator.rng = _ScriptedRNG([3, 3] * 50)
        with pytest.raises(RuntimeError):
            simulator._sample_od_pair()

    def test_last_draw_distinct_is_returned_as_before(self, tiny_network):
        """Non-degenerate exhaustion keeps the pre-fix result (last draw)."""
        simulator = TripSimulator(tiny_network, seed=0, min_trip_edges=100,
                                  max_trip_edges=100)
        # Distance check can never pass (needs >= 100 * 125 m); all draws
        # distinct, so the last one is returned.
        simulator.rng = _ScriptedRNG([0, 1] * 49 + [2, 3])
        assert simulator._sample_od_pair() == (2, 3)

    def test_sampled_pairs_always_distinct(self, tiny_network):
        simulator = TripSimulator(tiny_network, seed=123, min_trip_edges=2)
        for _ in range(200):
            origin, destination = simulator._sample_od_pair()
            assert origin != destination
