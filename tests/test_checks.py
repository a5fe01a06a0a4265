"""``repro._checks``: the exact-type first tests and ``check_integers``.

``check_integer`` and ``check_real`` accept an exact ``int`` or ``float``
before their general tests; the decisions and messages must not change.
``check_integers`` must return what a loop of ``check_integer`` calls would
accept, as the same tuple, or raise that loop's ``ValueError`` for the
first bad entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._checks import check_integer, check_integers, check_real


class IntLike:
    """An ``operator.index`` integer that is not an ``int``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IntLike({self.value})"


def looped(name, values, low=None, high=None):
    """The per-entry oracle: ``check_integer`` on each entry, in order."""
    values = tuple(values)
    for value in values:
        check_integer(name, value, low, high)
    return values


def outcome(check, *args, **kwargs):
    try:
        return "returned", check(*args, **kwargs)
    except ValueError as error:
        return "raised", str(error)


entries = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(np.int64),
    st.integers(-3, 12).map(IntLike),
    st.booleans(),
    st.sampled_from([2.0, 2.5, float("nan"), "3", None]),
    st.integers(0, 5).map(np.array),       # a 0-d array
)
bounds = st.sampled_from([(None, None), (0, None), (None, 10), (0, 10), (1, 4)])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(entries, max_size=8), bounds=bounds, as_list=st.booleans())
@example(values=[1, True], bounds=(0, None), as_list=False)
@example(values=[1, np.int64(2)], bounds=(0, 10), as_list=True)
@example(values=[1, 2.0], bounds=(0, None), as_list=False)
@example(values=[1, -1, 7], bounds=(0, None), as_list=False)
@example(values=[1, 10, -1], bounds=(0, 10), as_list=False)
@example(values=[3, np.array(2)], bounds=(0, 10), as_list=False)
def test_check_integers_matches_the_per_entry_loop(values, bounds, as_list):
    low, high = bounds
    sequence = list(values) if as_list else tuple(values)
    expected = outcome(looped, "edge id", sequence, low, high)
    actual = outcome(check_integers, "edge id", sequence, low, high)
    if expected[0] == "raised":
        assert actual == expected
    else:
        assert actual[0] == "returned" and type(actual[1]) is tuple
        assert len(actual[1]) == len(expected[1])
        assert all(a is e for a, e in zip(actual[1], expected[1]))


def test_check_integers_returns_a_tuple_unchanged():
    ids = (3, 1, 2)
    assert check_integers("edge id", ids, low=0) is ids
    assert check_integers("edge id", [3, 1, 2], low=0) == ids
    assert check_integers("edge id", (), low=0) == ()


@pytest.mark.parametrize("value, low, high, message", [
    (True, 0, None, "x must be an integer >= 0, got True"),
    (np.int64(-1), 0, None, "x must be an integer >= 0, got np.int64(-1)"),
    (2.0, None, None, "x must be an integer, got 2.0"),
    (-1, 0, 5, "x must be an integer in [0, 5), got -1"),
    (5, None, 5, "x must be an integer < 5, got 5"),
    (np.array(1), 0, None, "x must be an integer >= 0, got array(1)"),
])
def test_check_integer_messages(value, low, high, message):
    with pytest.raises(ValueError) as error:
        check_integer("x", value, low, high)
    assert str(error.value) == message


@pytest.mark.parametrize("value", [0, 4, np.int64(4), IntLike(4), np.uint8(3)])
def test_check_integer_returns_the_value_itself(value):
    assert check_integer("x", value, low=0, high=5) is value


@pytest.mark.parametrize("value, accepted", [
    (0.5, True), (np.float64(0.5), True), (0, True), (True, False), (float("nan"), False),
    (float("inf"), False), (1.0, False), (-0.0, True), ("0.5", False)])
def test_check_real_decisions(value, accepted):
    if accepted:
        assert check_real("x", value, at_least=0, below=1) is value
    else:
        with pytest.raises(ValueError, match=r"^x must be a finite real in \[0, 1\), got "):
            check_real("x", value, at_least=0, below=1)
