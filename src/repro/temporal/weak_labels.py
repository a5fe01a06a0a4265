"""Weak labels over departure times (paper Definition 6 and §VII-A5).

Two weak labelers are provided:

* :class:`PeakOffPeakLabeler` (POP, the paper's default): morning peak
  (7–9 a.m. weekdays), afternoon peak (4–7 p.m. weekdays), off-peak otherwise.
* :class:`CongestionIndexLabeler` (TCI): four congestion levels derived from a
  network-wide congestion profile.  The paper obtains these from Baidu Maps;
  here they come from the traffic simulator's congestion model, which plays
  the same role (a coarse, task-independent partition of departure times).
"""

from __future__ import annotations

__all__ = [
    "WeakLabeler",
    "PeakOffPeakLabeler",
    "CongestionIndexLabeler",
    "POP_MORNING_PEAK",
    "POP_AFTERNOON_PEAK",
    "POP_OFF_PEAK",
]

POP_MORNING_PEAK = 0
POP_AFTERNOON_PEAK = 1
POP_OFF_PEAK = 2


class WeakLabeler:
    """Interface: map a :class:`~repro.temporal.timeslots.DepartureTime` to a label."""

    #: Short identifier used in experiment reports ("pop", "tci").
    name = "base"

    def label(self, departure_time):
        raise NotImplementedError

    def __call__(self, departure_time):
        return self.label(departure_time)


class PeakOffPeakLabeler(WeakLabeler):
    """Peak vs. off-peak weak labels (paper's running example).

    Morning peak: 7–9 a.m. on weekdays.  Afternoon peak: 4–7 p.m. on
    weekdays.  Everything else (including weekends) is off-peak.
    """

    name = "pop"

    def __init__(self, morning=(7.0, 9.0), afternoon=(16.0, 19.0)):
        if morning[0] >= morning[1] or afternoon[0] >= afternoon[1]:
            raise ValueError("peak windows must have start < end")
        self.morning = morning
        self.afternoon = afternoon

    def label(self, departure_time):
        if departure_time.is_weekday:
            hour = departure_time.hour
            if self.morning[0] <= hour < self.morning[1]:
                return POP_MORNING_PEAK
            if self.afternoon[0] <= hour < self.afternoon[1]:
                return POP_AFTERNOON_PEAK
        return POP_OFF_PEAK


class CongestionIndexLabeler(WeakLabeler):
    """Traffic-congestion-index weak labels with four levels.

    The label is the quantised network congestion level at the departure
    time, as reported by a congestion profile (callable
    ``(departure_time) -> float`` in [0, 1]).  Thresholds follow the usual
    TCI buckets: smooth, slow, congested, heavily congested.
    """

    name = "tci"

    def __init__(self, congestion_profile, thresholds=(0.25, 0.5, 0.75)):
        thresholds = tuple(thresholds)
        # Strictly increasing: duplicates such as (0.5, 0.5, 0.75) would
        # silently make one of the four TCI labels unreachable.
        if len(thresholds) != 3 or any(
                right <= left for left, right in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be three strictly increasing values")
        self.congestion_profile = congestion_profile
        self.thresholds = thresholds

    def label(self, departure_time):
        level = float(self.congestion_profile(departure_time))
        for index, threshold in enumerate(self.thresholds):
            if level < threshold:
                return index
        return len(self.thresholds)
