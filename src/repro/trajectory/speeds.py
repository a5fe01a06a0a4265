"""Time-dependent edge speed model.

The WSCCL weak labels only carry signal because travel times, rankings and
route choices *actually depend* on the departure time.  This module provides
that dependency: a congestion profile over the day (morning and afternoon
peaks on weekdays), modulated per road type and per edge, which yields
realistic time-varying travel speeds for the simulator.

Pricing comes in two granularities:

* per-edge scalars (:meth:`SpeedModel.edge_speed`,
  :meth:`SpeedModel.path_travel_time`) — the reference path, one Python call
  per edge;
* batched arrays (:meth:`SpeedModel.edge_speeds`,
  :meth:`SpeedModel.edge_travel_time_vector`,
  :meth:`SpeedModel.path_travel_times`) — whole-frontier numpy over static
  per-edge factor arrays.  Noise-free batched pricing is bit-identical to
  the reference loop.

Both price congestion continuously in the departure time; nothing is
quantised to time slots.
"""

from __future__ import annotations

import numpy as np

from ..temporal.timeslots import DAYS_PER_WEEK

__all__ = ["CongestionProfile", "SpeedModel", "DEFAULT_CONGESTION_SENSITIVITY"]


class CongestionProfile:
    """Network-wide congestion level as a function of departure time.

    The level is in [0, 1]: 0 means free flow, 1 means the heaviest modelled
    congestion.  Weekday profiles have a morning peak centred at 8:00 and an
    afternoon peak centred at 17:30; weekends have a single shallow midday
    bump.  Gaussian bumps keep the profile smooth, so travel times vary
    continuously with departure time.
    """

    def __init__(self, morning_peak_hour=8.0, afternoon_peak_hour=17.5,
                 morning_intensity=0.85, afternoon_intensity=0.75,
                 weekend_intensity=0.30, peak_width_hours=1.2):
        if peak_width_hours <= 0:
            raise ValueError("peak_width_hours must be positive")
        self.morning_peak_hour = morning_peak_hour
        self.afternoon_peak_hour = afternoon_peak_hour
        self.morning_intensity = morning_intensity
        self.afternoon_intensity = afternoon_intensity
        self.weekend_intensity = weekend_intensity
        self.peak_width_hours = peak_width_hours

    def level(self, departure_time):
        """Congestion level in [0, 1] at a departure time."""
        hour = departure_time.hour
        width = self.peak_width_hours
        if departure_time.is_weekday:
            morning = self.morning_intensity * _bump(hour, self.morning_peak_hour, width)
            afternoon = self.afternoon_intensity * _bump(hour, self.afternoon_peak_hour, width)
            base = 0.08
            return float(np.clip(base + morning + afternoon, 0.0, 1.0))
        midday = self.weekend_intensity * _bump(hour, 13.0, 2.5)
        return float(np.clip(0.05 + midday, 0.0, 1.0))

    def level_batch(self, days, seconds):
        """Vectorised :meth:`level` over parallel day/seconds arrays.

        Elementwise identical to the scalar formula (same IEEE operations in
        the same order), so batched pricing matches the per-edge reference
        bit for bit.
        """
        days = np.asarray(days)
        hours = np.asarray(seconds, dtype=np.float64) / 3600.0
        width = self.peak_width_hours
        morning = self.morning_intensity * _bump(hours, self.morning_peak_hour, width)
        afternoon = self.afternoon_intensity * _bump(hours, self.afternoon_peak_hour, width)
        weekday_level = np.clip(0.08 + morning + afternoon, 0.0, 1.0)
        weekend_level = np.clip(0.05 + self.weekend_intensity * _bump(hours, 13.0, 2.5),
                                0.0, 1.0)
        return np.where(days < 5, weekday_level, weekend_level)

    def __call__(self, departure_time):
        return self.level(departure_time)


def _bump(hour, center, width):
    # Square via multiplication, not `** 2`: CPython computes float ** 2.0
    # through libm pow(), which can land one ulp away from the correctly
    # rounded x*x that numpy uses for arrays — and scalar and batched
    # congestion levels must agree bit for bit.
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
    :data:`DEFAULT_CONGESTION_SENSITIVITY`.
    """

    #: Speeds never drop below this floor (km/h), however congested.
    MIN_SPEED_KMH = 2.0

    def __init__(self, network, profile=None, seed=0, noise_std=0.05):
        self.network = network
        self.profile = profile or CongestionProfile()
        self.noise_std = noise_std
        rng = np.random.default_rng(seed)
        # Static per-edge heterogeneity in (0.75, 1.0].
        self._capacity_factor = 1.0 - rng.uniform(0.0, 0.25, size=network.num_edges)
        # One pass over the edge features: congestion sensitivity plus the
        # static per-edge arrays backing the batched pricing paths.
        sensitivities = np.empty(network.num_edges)
        self._speed_limits = np.empty(network.num_edges)
        self._lengths = np.empty(network.num_edges)
        for edge in range(network.num_edges):
            features = network.edge_features(edge)
            sensitivities[edge] = _CONGESTION_SENSITIVITY.get(
                features.road_type, DEFAULT_CONGESTION_SENSITIVITY)
            self._speed_limits[edge] = features.speed_limit
            self._lengths[edge] = network.edge_length(edge)
        # Per-edge congestion sensitivity jitter.
        self._sensitivity = np.clip(
            sensitivities * rng.uniform(0.85, 1.15, size=network.num_edges),
            0.0, 0.95)

    def congestion_level(self, departure_time):
        """Network-wide congestion level (used by the TCI weak labeler)."""
        return self.profile.level(departure_time)

    # ------------------------------------------------------------------
    # Reference (per-edge) pricing
    # ------------------------------------------------------------------
    def edge_speed(self, edge_id, departure_time, rng=None):
        """Travel speed on the edge in km/h at the given departure time."""
        features = self.network.edge_features(edge_id)
        level = self.profile.level(departure_time)
        slowdown = 1.0 - self._sensitivity[edge_id] * level
        speed = features.speed_limit * self._capacity_factor[edge_id] * slowdown
        if rng is not None and self.noise_std > 0:
            speed *= float(np.clip(rng.normal(1.0, self.noise_std), 0.5, 1.5))
        return float(max(speed, self.MIN_SPEED_KMH))

    def edge_travel_time(self, edge_id, departure_time, rng=None):
        """Traversal time of the edge in seconds at the given departure time."""
        speed_mps = self.edge_speed(edge_id, departure_time, rng=rng) / 3.6
        return float(self.network.edge_length(edge_id) / speed_mps)

    def path_travel_time(self, path, departure_time, rng=None):
        """Travel time of a path, advancing the clock edge by edge.

        The departure time is shifted as the vehicle progresses, so a path
        started just before the peak partially experiences it — the same
        coupling between space and time the paper's encoder must learn.
        """
        clock = departure_time
        total = 0.0
        for edge in path:
            seconds = self.edge_travel_time(edge, clock, rng=rng)
            total += seconds
            clock = clock.shift(seconds)
        return float(total)

    # ------------------------------------------------------------------
    # Batched pricing
    # ------------------------------------------------------------------
    def edge_speeds(self, departure_time):
        """Noise-free speeds of *all* edges at one departure time, shape (E,).

        Bit-identical to calling :meth:`edge_speed` per edge with
        ``rng=None``.
        """
        level = self.profile.level(departure_time)
        speeds = self._speed_limits * self._capacity_factor * (1.0 - self._sensitivity * level)
        return np.maximum(speeds, self.MIN_SPEED_KMH)

    def edge_travel_time_vector(self, departure_time):
        """Noise-free traversal seconds of all edges at one departure time.

        One vectorised evaluation replacing ``num_edges`` scalar
        :meth:`edge_travel_time` calls — this is the edge-cost table the
        simulator's route search reads from.
        """
        return self._lengths / (self.edge_speeds(departure_time) / 3.6)

    def path_travel_times(self, paths, departure_time):
        """Travel times of many paths sharing one departure time, shape (k,).

        All paths advance in lockstep: step ``t`` gathers the speeds of every
        path's ``t``-th edge at that path's current clock, accumulates the
        traversal seconds and shifts the clocks — ``max(len(path))`` numpy
        steps instead of ``k × len(path)`` Python calls.  The result is
        bit-identical to looping :meth:`path_travel_time` over the paths
        (without noise).
        """
        paths = [np.asarray(list(path), dtype=np.int64) for path in paths]
        count = len(paths)
        totals = np.zeros(count)
        if count == 0:
            return totals
        lengths = np.fromiter((p.size for p in paths), dtype=np.int64, count=count)
        max_len = int(lengths.max(initial=0))
        if max_len == 0:
            return totals
        padded = np.full((count, max_len), -1, dtype=np.int64)
        for row, path in enumerate(paths):
            padded[row, :path.size] = path

        days = np.full(count, departure_time.day_of_week, dtype=np.int64)
        seconds = np.full(count, departure_time.seconds, dtype=np.float64)
        for step in range(max_len):
            active = np.flatnonzero(lengths > step)
            edges = padded[active, step]
            level = self.profile.level_batch(days[active], seconds[active])
            slowdown = 1.0 - self._sensitivity[edges] * level
            speeds = np.maximum(
                self._speed_limits[edges] * self._capacity_factor[edges] * slowdown,
                self.MIN_SPEED_KMH)
            step_seconds = self._lengths[edges] / (speeds / 3.6)
            totals[active] += step_seconds
            days[active], seconds[active] = _advance_clock(
                days[active], seconds[active], step_seconds)
        return totals


def _advance_clock(days, seconds, delta):
    """Vectorised mirror of ``DepartureTime.shift`` over parallel arrays."""
    week_seconds = DAYS_PER_WEEK * 86400.0
    total = days * 86400.0 + seconds + delta
    total = total % week_seconds
    # Guard against float rounding, exactly as DepartureTime.shift does.
    total = np.where(total >= week_seconds, total - week_seconds, total)
    day, remainder = np.divmod(total, 86400.0)
    day = day.astype(np.int64) % DAYS_PER_WEEK
    rolled = remainder >= 86400.0
    day = np.where(rolled, (day + 1) % DAYS_PER_WEEK, day)
    remainder = np.where(rolled, 0.0, remainder)
    return day, remainder
