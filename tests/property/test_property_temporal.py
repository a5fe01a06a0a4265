"""Property-based tests for time-slot arithmetic and weak labels."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TemporalEmbedding, WSCCLConfig
from repro.temporal import (
    SLOTS_PER_DAY,
    TOTAL_SLOTS,
    CongestionIndexLabeler,
    DepartureTime,
    PeakOffPeakLabeler,
)
from repro.trajectory import CongestionProfile


departure_times = st.builds(
    DepartureTime.from_hour,
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=23.999, allow_nan=False),
)


@given(departure_times)
@settings(max_examples=100, deadline=None)
def test_slot_index_in_range(departure):
    config = WSCCLConfig.test_scale().with_overrides(slots_per_day=SLOTS_PER_DAY)
    embedding = TemporalEmbedding(config, embeddings=np.zeros((TOTAL_SLOTS, config.temporal_dim)))
    assert 0 <= embedding.slot_indices([departure])[0] < TOTAL_SLOTS


@given(departure_times, st.floats(min_value=-7 * 86400, max_value=7 * 86400,
                                  allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_shift_always_produces_valid_time(departure, shift)    :
    shifted = departure.shift(shift)
    assert 0 <= shifted.day_of_week < 7
    assert 0.0 <= shifted.seconds < 86400


@given(departure_times, st.floats(min_value=0, max_value=86400, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_shift_forward_then_back_is_identity(departure, shift):
    round_trip = departure.shift(shift).shift(-shift)
    # Compare in week-seconds with wrap-around tolerance: floating point can
    # land an exact-midnight time a hair before the day boundary.
    week = 7 * 86400
    original = departure.day_of_week * 86400 + departure.seconds
    result = round_trip.day_of_week * 86400 + round_trip.seconds
    difference = abs(original - result) % week
    assert min(difference, week - difference) < 1e-3


@given(departure_times)
@settings(max_examples=100, deadline=None)
def test_pop_labels_always_valid(departure):
    labeler = PeakOffPeakLabeler()
    assert labeler(departure) in (0, 1, 2)


@given(departure_times)
@settings(max_examples=100, deadline=None)
def test_weekend_never_peak(departure):
    labeler = PeakOffPeakLabeler()
    if not departure.is_weekday:
        assert labeler(departure) == 2


@given(departure_times)
@settings(max_examples=100, deadline=None)
def test_tci_labels_always_valid(departure):
    labeler = CongestionIndexLabeler(CongestionProfile())
    assert labeler(departure) in (0, 1, 2, 3)


@given(departure_times)
@settings(max_examples=100, deadline=None)
def test_congestion_profile_bounded(departure):
    profile = CongestionProfile()
    assert 0.0 <= profile.level(departure) <= 1.0
