"""Time-dependent edge speed model.

The WSCCL weak labels only carry signal because travel times, rankings and
route choices *actually depend* on the departure time.  This module provides
that dependency: a congestion profile over the day (morning and afternoon
peaks on weekdays), modulated per road type and per edge, which yields
realistic time-varying travel speeds for the simulator.

Pricing walks a path's clock edge by edge
(:meth:`SpeedModel.edge_travel_times`): each edge is priced at the time the
vehicle reaches it, so congestion is continuous in the departure time and
nothing is quantised to time slots.  The one batched call,
:meth:`SpeedModel.edge_travel_time_vector`, prices every edge at a single
departure time for the simulator's route search.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_integer, check_real

__all__ = ["CongestionProfile", "SpeedModel", "DEFAULT_CONGESTION_SENSITIVITY"]


class CongestionProfile:
    """Network-wide congestion level as a function of departure time.

    The level is in [0, 1]: 0 means free flow, 1 means the heaviest modelled
    congestion.  Weekday profiles have a morning peak centred at 8:00 and an
    afternoon peak centred at 17:30; weekends have a single shallow midday
    bump.  Gaussian bumps keep the profile smooth, so travel times vary
    continuously with departure time.  Every argument must be a finite,
    non-negative number, and ``peak_width_hours`` a positive one.
    """

    def __init__(self, morning_peak_hour=8.0, afternoon_peak_hour=17.5,
                 morning_intensity=0.85, afternoon_intensity=0.75,
                 weekend_intensity=0.30, peak_width_hours=1.2):
        self.morning_peak_hour = check_real("morning_peak_hour", morning_peak_hour, at_least=0)
        self.afternoon_peak_hour = check_real("afternoon_peak_hour", afternoon_peak_hour,
                                              at_least=0)
        self.morning_intensity = check_real("morning_intensity", morning_intensity, at_least=0)
        self.afternoon_intensity = check_real("afternoon_intensity", afternoon_intensity,
                                              at_least=0)
        self.weekend_intensity = check_real("weekend_intensity", weekend_intensity, at_least=0)
        self.peak_width_hours = check_real("peak_width_hours", peak_width_hours, above=0)

    def level(self, departure_time):
        """Congestion level in [0, 1] at a departure time."""
        hour = departure_time.hour
        width = self.peak_width_hours
        if departure_time.is_weekday:
            morning = self.morning_intensity * _bump(hour, self.morning_peak_hour, width)
            afternoon = self.afternoon_intensity * _bump(hour, self.afternoon_peak_hour, width)
            base = 0.08
            return float(min(max(base + morning + afternoon, 0.0), 1.0))
        midday = self.weekend_intensity * _bump(hour, 13.0, 2.5)
        return float(min(max(0.05 + midday, 0.0), 1.0))

    def __call__(self, departure_time):
        return self.level(departure_time)


def _bump(hour, center, width):
    # Square via multiplication, not `** 2`: CPython computes float ** 2.0
    # through libm pow(), which can land one ulp away from x*x, so changing
    # it would move congestion levels and every trip pinned in tests/golden/.
    # For the same reason the exponential stays np.exp, not math.exp.
    z = (hour - center) / width
    return np.exp(-0.5 * (z * z))


#: How strongly each road type responds to congestion.  Motorways and
#: arterials suffer the most during peaks (they carry commuter flow), which
#: is what makes the "avoid the highway at 8 a.m." example from the paper's
#: introduction emerge from the simulator.
_CONGESTION_SENSITIVITY = {
    "motorway": 0.85,
    "trunk": 0.80,
    "primary": 0.70,
    "secondary": 0.60,
    "tertiary": 0.45,
    "residential": 0.30,
    "service": 0.25,
}

#: Sensitivity assumed for road types outside the table above (e.g. networks
#: built with a custom feature schema): a mid-range response, between
#: "tertiary" and "secondary".
DEFAULT_CONGESTION_SENSITIVITY = 0.5


class SpeedModel:
    """Per-edge, time-dependent travel speeds.

    Each edge gets a static random capacity factor (some streets are simply
    slower than their speed limit suggests) plus a dynamic congestion factor
    driven by the :class:`CongestionProfile` and the edge's road type.  Road
    types missing from the sensitivity table fall back to
    :data:`DEFAULT_CONGESTION_SENSITIVITY`.  ``noise_std`` (the relative
    spread of a noisy edge speed) must be a finite, non-negative number.
    """

    #: Speeds never drop below this floor (km/h), however congested.
    MIN_SPEED_KMH = 2.0

    def __init__(self, network, profile=None, seed=0, noise_std=0.05):
        self.network = network
        self.profile = profile or CongestionProfile()
        self.noise_std = check_real("noise_std", noise_std, at_least=0)
        rng = np.random.default_rng(seed)
        # Static per-edge heterogeneity in (0.75, 1.0].
        self._capacity_factor = 1.0 - rng.uniform(0.0, 0.25, size=network.num_edges)
        # One pass over the edge features: congestion sensitivity plus the
        # static per-edge arrays behind edge_travel_time_vector.
        sensitivities = np.empty(network.num_edges)
        self._speed_limits = np.empty(network.num_edges)
        self._lengths = network.edge_lengths()
        for edge in range(network.num_edges):
            features = network.edge_features(edge)
            sensitivities[edge] = _CONGESTION_SENSITIVITY.get(
                features.road_type, DEFAULT_CONGESTION_SENSITIVITY)
            self._speed_limits[edge] = features.speed_limit
        # Per-edge congestion sensitivity jitter.
        self._sensitivity = np.clip(
            sensitivities * rng.uniform(0.85, 1.15, size=network.num_edges),
            0.0, 0.95)

    def congestion_level(self, departure_time):
        """Network-wide congestion level (used by the TCI weak labeler)."""
        return self.profile.level(departure_time)

    def edge_speed(self, edge_id, departure_time, rng=None):
        """Travel speed on the edge in km/h at the given departure time."""
        features = self.network.edge_features(edge_id)
        level = self.profile.level(departure_time)
        slowdown = 1.0 - self._sensitivity[edge_id] * level
        speed = features.speed_limit * self._capacity_factor[edge_id] * slowdown
        if rng is not None and self.noise_std > 0:
            speed *= min(max(rng.normal(1.0, self.noise_std), 0.5), 1.5)
        return float(max(speed, self.MIN_SPEED_KMH))

    def edge_travel_time(self, edge_id, departure_time, rng=None):
        """Traversal time of the edge in seconds at the given departure time."""
        speed_mps = self.edge_speed(edge_id, departure_time, rng=rng) / 3.6
        return float(self.network.edge_length(edge_id) / speed_mps)

    def edge_travel_times(self, path, departure_time, rng=None):
        """Traversal seconds of each edge of ``path``, advancing the clock edge by edge.

        The departure time is shifted as the vehicle progresses, so a path
        started just before the peak partially experiences it — the same
        coupling between space and time the paper's encoder must learn.
        With ``rng``, each edge draws its speed noise in path order.  Every
        edge id is checked before the first draw: an id that is not an
        integer in ``[0, num_edges)`` raises a ``ValueError`` naming it.
        """
        path = list(path)
        num_edges = self.network.num_edges
        for edge in path:
            check_integer("edge id", edge, low=0, high=num_edges)
        clock = departure_time
        times = []
        for edge in path:
            seconds = self.edge_travel_time(edge, clock, rng=rng)
            times.append(seconds)
            clock = clock.shift(seconds)
        return times

    def path_travel_time(self, path, departure_time, rng=None):
        """Travel time of a path: its :meth:`edge_travel_times` summed in path order."""
        total = 0.0
        for seconds in self.edge_travel_times(path, departure_time, rng=rng):
            total += seconds
        return total

    def edge_travel_time_vector(self, departure_time):
        """Noise-free traversal seconds of all edges at one departure time, shape (E,).

        One vectorised evaluation replacing ``num_edges`` scalar
        :meth:`edge_travel_time` calls, bit-identical to them with
        ``rng=None`` — this is the edge-cost table the simulator's route
        search reads from.
        """
        level = self.profile.level(departure_time)
        speeds = self._speed_limits * self._capacity_factor * (1.0 - self._sensitivity * level)
        return self._lengths / (np.maximum(speeds, self.MIN_SPEED_KMH) / 3.6)
