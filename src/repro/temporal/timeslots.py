"""Time-slot arithmetic for departure times.

The paper (§IV-A) splits a day into 288 five-minute slots and considers the
seven days of a week separately, giving 2016 ``(day, slot)`` nodes in the
temporal graph.  This module provides the conversions between wall-clock
departure times and those slot indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._checks import check_integer, check_real

__all__ = [
    "SLOT_MINUTES",
    "SLOTS_PER_DAY",
    "DAYS_PER_WEEK",
    "TOTAL_SLOTS",
    "DepartureTime",
]

SLOT_MINUTES = 5
SLOTS_PER_DAY = 24 * 60 // SLOT_MINUTES  # 288
DAYS_PER_WEEK = 7
TOTAL_SLOTS = SLOTS_PER_DAY * DAYS_PER_WEEK  # 2016


@dataclass(frozen=True)
class DepartureTime:
    """A departure time: day of week plus seconds since midnight.

    ``day_of_week`` follows ISO order with 0 = Monday … 6 = Sunday.
    """

    day_of_week: int
    seconds: float

    def __post_init__(self):
        check_integer("day_of_week", self.day_of_week, low=0, high=DAYS_PER_WEEK)
        check_real("seconds", self.seconds, at_least=0, below=24 * 3600)

    @property
    def hour(self):
        """Hour of day as a float (e.g. 8.5 for 08:30)."""
        return self.seconds / 3600.0

    @property
    def is_weekday(self):
        """Monday..Friday."""
        return self.day_of_week < 5

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_hour(cls, day_of_week, hour):
        """Build from a fractional hour of day, e.g. ``from_hour(0, 8.25)``."""
        return cls(day_of_week=day_of_week, seconds=float(hour) * 3600.0)

    def shift(self, seconds):
        """Return a new departure time shifted by ``seconds`` (wraps within the week)."""
        week_seconds = DAYS_PER_WEEK * 86400
        total = self.day_of_week * 86400 + self.seconds + seconds
        total %= week_seconds
        # Guard against float rounding: a tiny negative shift can make the
        # modulo return exactly one full week.
        if total >= week_seconds:
            total -= week_seconds
        day, remainder = divmod(total, 86400)
        day = int(day) % DAYS_PER_WEEK
        if remainder >= 86400.0:
            remainder = 0.0
            day = (day + 1) % DAYS_PER_WEEK
        return DepartureTime(day_of_week=day, seconds=float(remainder))
