"""The encoder's input builders against their numpy-only oracles.

``pad_paths`` and ``TemporalEmbedding.slot_indices`` build the arrays the
temporal path encoder gathers its LSTM input from; they must equal
``reference_inputs``' arrays byte for byte, for 1 to 64 paths of 1 to 30
edges, equal lengths (no padding) included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_inputs import pad_paths_reference, slot_indices_reference

from repro.core import TemporalEmbedding, pad_paths
from repro.datasets import TemporalPath
from repro.temporal import DepartureTime


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


departures = st.builds(DepartureTime, st.integers(0, 6),
                       st.one_of(st.floats(0.0, 86399.999), st.sampled_from(
                           [0.0, 1800.0, 86399.999, 43200.0, 86399.99999999999])))


@st.composite
def batches(draw):
    count = draw(st.integers(1, 64))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 30))] * count
    else:
        lengths = draw(st.lists(st.integers(1, 30), min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [TemporalPath(rng.integers(0, 10 ** 6, size=length), draw(departures))
            for length in lengths]


@settings(max_examples=150, deadline=None)
@given(paths=batches(), pad_value=st.sampled_from([-1, -7]))
def test_pad_paths_matches_the_numpy_builder(paths, pad_value):
    edge_ids, mask = pad_paths(paths, pad_value=pad_value)
    want_ids, want_mask = pad_paths_reference(paths, pad_value=pad_value)
    assert_same_bits(edge_ids, want_ids)
    assert_same_bits(mask, want_mask)


@pytest.mark.parametrize("pad_value", [0, 3, -1.0, -1.5, True])
def test_pad_value_must_be_a_negative_integer(pad_value):
    # -1.0 used to pass as -1; a pad >= 0 would alias a real edge id.
    path = TemporalPath((0, 1), DepartureTime.from_hour(0, 8.0))
    with pytest.raises(ValueError,
                       match=rf"^pad_value must be an integer < 0, got {pad_value!r}$"):
        pad_paths([path], pad_value=pad_value)


@pytest.mark.parametrize("slots_per_day", [1, 9, 48, 288])
@settings(max_examples=40, deadline=None)
@given(paths=batches())
def test_slot_indices_match_the_numpy_builder(tiny_config, slots_per_day, paths):
    config = tiny_config.with_overrides(slots_per_day=slots_per_day)
    embedding = TemporalEmbedding(config, embeddings=np.zeros((7 * slots_per_day,
                                                               config.temporal_dim)))
    times = [tp.departure_time for tp in paths]
    assert_same_bits(embedding.slot_indices(times),
                     slot_indices_reference(slots_per_day, times))
