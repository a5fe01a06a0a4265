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
        nodes = tiny_network.path_nodes(trip.path)
        assert nodes[0] == trip.origin
        assert nodes[-1] == trip.destination

    def test_alternatives_share_endpoints(self, simulator, tiny_network):
        trip = simulator.simulate_trip()
        for alternative in trip.alternatives:
            nodes = tiny_network.path_nodes(alternative)
            assert nodes[0] == trip.origin
            assert nodes[-1] == trip.destination

    def test_simulate_produces_requested_count(self, simulator):
        trips = simulator.simulate(10)
        assert len(trips) == 10

    def test_travel_time_roughly_scales_with_length(self, simulator, tiny_network):
        trips = simulator.simulate(25)
        lengths = np.array([tiny_network.path_length(t.path) for t in trips])
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
        simulator = TripSimulator(tiny_network, seed=0, min_trip_edges=100)
        # Distance check can never pass (needs >= 100 * 125 m); all draws
        # distinct, so the last one is returned.
        simulator.rng = _ScriptedRNG([0, 1] * 49 + [2, 3])
        assert simulator._sample_od_pair() == (2, 3)

    def test_sampled_pairs_always_distinct(self, tiny_network):
        simulator = TripSimulator(tiny_network, seed=123, min_trip_edges=2)
        for _ in range(200):
            origin, destination = simulator._sample_od_pair()
            assert origin != destination
