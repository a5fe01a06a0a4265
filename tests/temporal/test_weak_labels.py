"""Tests for the POP and TCI weak labelers."""

from __future__ import annotations

import pytest

from repro.temporal import (
    POP_AFTERNOON_PEAK,
    POP_MORNING_PEAK,
    POP_OFF_PEAK,
    CongestionIndexLabeler,
    DepartureTime,
    PeakOffPeakLabeler,
)
from repro.trajectory import CongestionProfile


class TestPeakOffPeakLabeler:
    @pytest.fixture()
    def labeler(self):
        return PeakOffPeakLabeler()

    def test_morning_peak_weekday(self, labeler):
        assert labeler(DepartureTime.from_hour(0, 8.0)) == POP_MORNING_PEAK

    def test_afternoon_peak_weekday(self, labeler):
        assert labeler(DepartureTime.from_hour(3, 17.0)) == POP_AFTERNOON_PEAK

    def test_off_peak_midday(self, labeler):
        assert labeler(DepartureTime.from_hour(2, 12.0)) == POP_OFF_PEAK

    def test_weekend_is_always_off_peak(self, labeler):
        assert labeler(DepartureTime.from_hour(5, 8.0)) == POP_OFF_PEAK
        assert labeler(DepartureTime.from_hour(6, 17.0)) == POP_OFF_PEAK

    def test_boundaries_are_half_open(self, labeler):
        assert labeler(DepartureTime.from_hour(1, 7.0)) == POP_MORNING_PEAK
        assert labeler(DepartureTime.from_hour(1, 9.0)) == POP_OFF_PEAK

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            PeakOffPeakLabeler(morning=(9.0, 7.0))


class TestCongestionIndexLabeler:
    @pytest.fixture()
    def labeler(self):
        return CongestionIndexLabeler(CongestionProfile())

    def test_peak_is_more_congested_than_night(self, labeler):
        peak = labeler(DepartureTime.from_hour(1, 8.0))
        night = labeler(DepartureTime.from_hour(1, 3.0))
        assert peak > night

    def test_labels_within_range(self, labeler):
        for day in range(7):
            for hour in range(0, 24, 3):
                label = labeler(DepartureTime.from_hour(day, hour))
                assert 0 <= label < 4

    def test_custom_profile_callable(self):
        labeler = CongestionIndexLabeler(lambda t: 0.9)
        assert labeler(DepartureTime.from_hour(0, 12.0)) == 3

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CongestionIndexLabeler(lambda t: 0.0, thresholds=(0.5, 0.2, 0.8))


class TestCongestionThresholdValidation:
    """Thresholds must be strictly increasing: duplicates silently made one
    of the four TCI labels unreachable before the fix."""

    def _profile(self):
        return lambda departure_time: 0.5

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CongestionIndexLabeler(self._profile(), thresholds=(0.5, 0.5, 0.75))

    def test_decreasing_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CongestionIndexLabeler(self._profile(), thresholds=(0.75, 0.5, 0.25))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            CongestionIndexLabeler(self._profile(), thresholds=(0.25, 0.5))
        with pytest.raises(ValueError):
            CongestionIndexLabeler(self._profile(), thresholds=(0.1, 0.2, 0.3, 0.4))

    def test_strictly_increasing_accepted_and_all_labels_reachable(self):
        labeler = CongestionIndexLabeler(self._profile(),
                                         thresholds=(0.2, 0.4, 0.6))
        levels = {0.1: 0, 0.3: 1, 0.5: 2, 0.9: 3}
        for level, expected in levels.items():
            labeler.congestion_profile = lambda t, level=level: level
            assert labeler.label(None) == expected
