"""Tests for departure-time slot arithmetic."""

from __future__ import annotations

import pytest

from repro.temporal import (
    DAYS_PER_WEEK,
    SLOTS_PER_DAY,
    TOTAL_SLOTS,
    DepartureTime,
)


class TestConstants:
    def test_paper_constants(self):
        assert SLOTS_PER_DAY == 288
        assert DAYS_PER_WEEK == 7
        assert TOTAL_SLOTS == 2016


class TestDepartureTime:
    def test_validation(self):
        with pytest.raises(ValueError):
            DepartureTime(day_of_week=7, seconds=0.0)
        with pytest.raises(ValueError):
            DepartureTime(day_of_week=0, seconds=86400.0)
        with pytest.raises(ValueError):
            DepartureTime(day_of_week=-1, seconds=0.0)

    @pytest.mark.parametrize("day", [True, 1.5])
    def test_day_must_be_an_integer(self, day):
        # True used to read as Tuesday and 1.5 as a day between two.
        with pytest.raises(ValueError,
                           match=rf"^day_of_week must be an integer in \[0, 7\), got {day!r}$"):
            DepartureTime(day, 0.0)

    @pytest.mark.parametrize("seconds", [True, float("nan"), "0"])
    def test_seconds_must_be_a_finite_real(self, seconds):
        with pytest.raises(ValueError, match=r"^seconds must be a finite real in \[0, 86400\)"):
            DepartureTime(0, seconds)

    def test_from_hour(self):
        t = DepartureTime.from_hour(4, 8.5)
        assert t.hour == pytest.approx(8.5)
        assert t.day_of_week == 4

    def test_weekday_flag(self):
        assert DepartureTime.from_hour(0, 10).is_weekday
        assert DepartureTime.from_hour(4, 10).is_weekday
        assert not DepartureTime.from_hour(5, 10).is_weekday
        assert not DepartureTime.from_hour(6, 10).is_weekday

    def test_shift_within_day(self):
        t = DepartureTime.from_hour(1, 8.0).shift(3600)
        assert t.day_of_week == 1
        assert t.hour == pytest.approx(9.0)

    def test_shift_across_midnight(self):
        t = DepartureTime.from_hour(1, 23.5).shift(3600)
        assert t.day_of_week == 2
        assert t.hour == pytest.approx(0.5)

    def test_shift_wraps_week(self):
        t = DepartureTime.from_hour(6, 23.5).shift(3600)
        assert t.day_of_week == 0
        assert t.hour == pytest.approx(0.5)

    def test_shift_negative(self):
        t = DepartureTime.from_hour(0, 0.5).shift(-3600)
        assert t.day_of_week == 6
        assert t.hour == pytest.approx(23.5)

    def test_immutability(self):
        t = DepartureTime.from_hour(0, 8.0)
        with pytest.raises(AttributeError):
            t.seconds = 0.0
