"""Equivalence suites: trip pricing vs the per-edge reference loops.

* ``edge_travel_time_vector`` is elementwise the same IEEE operations as
  ``edge_travel_time``, so equality is exact (``==``, not approx).
* ``path_travel_time`` sums ``edge_travel_times``, the clock walk, in path
  order.
* The simulator, whose route search reads the edge-cost vector, must
  produce bit-identical trips to a simulator whose speed model prices the
  vector with scalar per-edge calls under one seed.
* The scalar clips of ``CongestionProfile.level`` and
  ``SpeedModel.edge_speed``, ``min(max(x, low), high)``, give the bits of
  ``np.clip``, NaN and signed zeros included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.temporal import DepartureTime
from repro.trajectory import SpeedModel, TripSimulator

departure_times = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=23.99, allow_nan=False),
).map(lambda pair: DepartureTime.from_hour(*pair))


def random_paths(network, rng, count, max_edges):
    """Connected random paths over the network (graph-walk construction)."""
    paths = []
    for _ in range(count):
        node = int(rng.integers(0, network.num_nodes))
        path = []
        for _ in range(max_edges):
            edges = network.out_edges(node)
            if not edges:
                break
            edge = int(edges[rng.integers(0, len(edges))])
            path.append(edge)
            node = network.edge_endpoints(edge)[1]
        if path:
            paths.append(path)
    return paths


class TestScalarClip:
    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.sampled_from([(0.0, 1.0), (0.5, 1.5), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]))
    @settings(max_examples=300, deadline=None)
    @example(-0.0, (0.0, 1.0))
    @example(0.0, (-0.0, 1.0))
    @example(float("nan"), (0.0, 1.0))
    @example(np.float64(0.75), (0.0, 1.0))
    def test_min_max_matches_np_clip(self, value, bounds):
        low, high = bounds
        expected = float(np.clip(value, low, high))
        actual = float(min(max(value, low), high))
        assert np.float64(actual).tobytes() == np.float64(expected).tobytes()


class TestExactEquivalence:
    @given(departure_times)
    @settings(max_examples=30, deadline=None)
    def test_edge_vectors_match_scalar_loop(self, tiny_network, departure_time):
        model = SpeedModel(tiny_network, seed=0)
        times = model.edge_travel_time_vector(departure_time)
        for edge in range(tiny_network.num_edges):
            assert float(times[edge]) == model.edge_travel_time(edge, departure_time)

    @given(departure_times, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_path_price_sums_the_clock_walk_in_order(self, tiny_network, departure_time,
                                                     seed):
        model = SpeedModel(tiny_network, seed=0)
        rng = np.random.default_rng(seed)
        for path in random_paths(tiny_network, rng, count=6, max_edges=12):
            clock, expected, total = departure_time, [], 0.0
            for edge in path:
                expected.append(model.edge_travel_time(edge, clock))
                total += expected[-1]
                clock = clock.shift(expected[-1])
            assert model.edge_travel_times(path, departure_time) == expected
            assert model.path_travel_time(path, departure_time) == total


class LoopPricedSpeedModel(SpeedModel):
    """Prices the route search's edge-cost table with scalar per-edge calls."""

    def edge_travel_time_vector(self, departure_time):
        return np.array([self.edge_travel_time(edge, departure_time)
                         for edge in range(self.network.num_edges)])


class TestSimulatorImplEquivalence:
    def test_vectorized_simulator_bit_identical(self, tiny_network):
        def run(model_class):
            simulator = TripSimulator(
                tiny_network, speed_model=model_class(tiny_network, seed=0),
                seed=9, min_trip_edges=2)
            return simulator.simulate(12)

        reference = run(LoopPricedSpeedModel)
        vectorized = run(SpeedModel)
        assert len(reference) == len(vectorized) == 12
        for ref_trip, vec_trip in zip(reference, vectorized):
            assert ref_trip.path == vec_trip.path
            assert ref_trip.travel_time == vec_trip.travel_time
            assert ref_trip.departure_time == vec_trip.departure_time
            assert ref_trip.alternatives == vec_trip.alternatives
            assert (ref_trip.origin, ref_trip.destination) == (
                vec_trip.origin, vec_trip.destination)
