"""Trip simulator: generates temporal paths with realistic route choice.

The simulator replaces the paper's fleet GPS corpora.  For each trip it

1. picks an origin/destination pair and a departure time (commute-heavy on
   weekdays, spread out on weekends),
2. computes candidate routes with the k-shortest-path search under the
   *time-dependent* travel costs, and picks the route a driver would take at
   that departure time (fastest route with a small amount of choice noise),
3. records the driven path, its simulated travel time, and (optionally) a
   noisy GPS trace.

Because route choice and travel time both depend on the departure time, the
resulting dataset has exactly the spatio-temporal coupling WSCCL's weak
labels are designed to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..roadnet.search import k_shortest_paths
from ..temporal.timeslots import DepartureTime
from .speeds import SpeedModel

__all__ = ["Trip", "TripSimulator"]


@dataclass
class Trip:
    """One simulated trip.

    Attributes
    ----------
    path:
        Sequence of edge ids actually driven.
    departure_time:
        :class:`DepartureTime` of the trip.
    travel_time:
        Simulated travel time in seconds.
    alternatives:
        Other candidate paths for the same origin/destination (used by the
        ranking and recommendation tasks).
    origin, destination:
        Node ids.
    """

    path: list
    departure_time: DepartureTime
    travel_time: float
    origin: int
    destination: int
    alternatives: list = field(default_factory=list)


class TripSimulator:
    """Generate trips over a road network with a time-dependent speed model."""

    def __init__(self, network, speed_model=None, seed=0,
                 min_trip_edges=4, max_trip_edges=40, num_alternatives=3,
                 route_choice_noise=0.1):
        self.network = network
        self.speed_model = speed_model or SpeedModel(network, seed=seed)
        self.rng = np.random.default_rng(seed)
        self.min_trip_edges = min_trip_edges
        self.max_trip_edges = max_trip_edges
        self.num_alternatives = num_alternatives
        self.route_choice_noise = route_choice_noise

    # ------------------------------------------------------------------
    # Departure time sampling
    # ------------------------------------------------------------------
    def sample_departure_time(self):
        """Sample a departure time with commute-heavy weekday structure."""
        day = int(self.rng.integers(0, 7))
        if day < 5:
            # Weekday mixture: morning peak, afternoon peak, uniform rest.
            component = self.rng.random()
            if component < 0.3:
                hour = float(np.clip(self.rng.normal(8.0, 0.8), 0.0, 23.99))
            elif component < 0.6:
                hour = float(np.clip(self.rng.normal(17.5, 1.0), 0.0, 23.99))
            else:
                hour = float(self.rng.uniform(5.0, 23.0))
        else:
            hour = float(self.rng.uniform(7.0, 23.0))
        return DepartureTime.from_hour(day, hour)

    # ------------------------------------------------------------------
    # Origin / destination sampling
    # ------------------------------------------------------------------
    def _sample_od_pair(self):
        """Sample an origin/destination with a plausible trip distance.

        When no draw within the attempt budget satisfies the distance
        heuristic, the last *distinct* pair is returned; a degenerate
        ``origin == destination`` pair is never emitted (a RuntimeError is
        raised if 50 draws produce only degenerate pairs, which requires a
        near-single-node network).
        """
        fallback = None
        for _ in range(50):
            origin = int(self.rng.integers(0, self.network.num_nodes))
            destination = int(self.rng.integers(0, self.network.num_nodes))
            if origin == destination:
                continue
            fallback = (origin, destination)
            ox, oy = self.network.node_coordinates(origin)
            dx, dy = self.network.node_coordinates(destination)
            distance = float(np.hypot(dx - ox, dy - oy))
            mean_block = 250.0
            if self.min_trip_edges * mean_block * 0.5 <= distance:
                return origin, destination
        if fallback is None:
            raise RuntimeError(
                "could not sample a distinct origin/destination pair in 50 "
                f"attempts on a {self.network.num_nodes}-node network")
        return fallback

    # ------------------------------------------------------------------
    # Route generation
    # ------------------------------------------------------------------
    def _candidate_routes(self, origin, destination, departure_time):
        """k candidate routes ranked by time-dependent cost at departure."""
        # One vectorised evaluation of every edge's cost at the departure
        # time; the search then reads from the table instead of paying a
        # Python speed-model call per relaxed edge.  The table entries are
        # bit-identical to edge_travel_time.
        cost_vector = self.speed_model.edge_travel_time_vector(departure_time)

        def cost(edge):
            return float(cost_vector[edge])

        candidates = k_shortest_paths(
            self.network, origin, destination,
            k=self.num_alternatives + 1, edge_cost=cost,
        )
        return [c for c in candidates
                if self.min_trip_edges <= len(c) <= self.max_trip_edges] or candidates

    def simulate_trip(self, departure_time=None, origin=None, destination=None):
        """Simulate one trip; returns a :class:`Trip` or None if no route exists."""
        departure_time = departure_time or self.sample_departure_time()
        if origin is None or destination is None:
            origin, destination = self._sample_od_pair()

        candidates = self._candidate_routes(origin, destination, departure_time)
        if not candidates:
            return None

        # Route choice: drivers mostly take the fastest route at departure,
        # with a small noise term representing preference heterogeneity.
        # All k candidates are priced in lockstep (bit-identical to pricing
        # each with path_travel_time).
        costs = self.speed_model.path_travel_times(candidates, departure_time)
        noisy = costs * (1.0 + self.rng.normal(0.0, self.route_choice_noise, size=len(costs)))
        chosen_index = int(np.argmin(noisy))
        chosen = candidates[chosen_index]
        alternatives = [c for i, c in enumerate(candidates) if i != chosen_index]

        # The single chosen path is priced with per-edge noise draws in path
        # order.
        travel_time = self.speed_model.path_travel_time(
            chosen, departure_time, rng=self.rng
        )
        return Trip(
            path=list(chosen),
            departure_time=departure_time,
            travel_time=float(travel_time),
            origin=origin,
            destination=destination,
            alternatives=[list(a) for a in alternatives],
        )

    def simulate(self, num_trips, progress_every=0):
        """Simulate ``num_trips`` trips (skipping unroutable OD pairs)."""
        trips = []
        attempts = 0
        while len(trips) < num_trips and attempts < num_trips * 10:
            attempts += 1
            trip = self.simulate_trip()
            if trip is not None and len(trip.path) >= self.min_trip_edges:
                trips.append(trip)
        return trips
