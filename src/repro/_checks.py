"""Argument checks shared by every public entry point.

One rule for scalars: an integer is anything ``operator.index`` accepts
except a 0-d array (mutable, so unhashable), a real is a finite
``numbers.Real``, and neither is ever a ``bool``, which would otherwise pass
as 0 or 1.  The checks return the value they were given, unchanged, so a
caller stores exactly what it was passed; ``check_integers`` checks every
entry of a sequence as ``check_integer`` does and returns it as a tuple.
An exact ``int`` or ``float`` is accepted by its type alone, before the
costlier general tests.  Each raises a ``ValueError`` in
one format that names the argument and the value:

* ``{name} must be an integer{bounds}, got {value!r}``, where the bounds
  read `` >= low``, `` < high`` or `` in [low, high)``;
* ``{name} must be a finite real in {interval}, got {value!r}``, e.g.
  ``(0, inf)`` or ``[0, 1]``;
* ``{name} must be finite, got {value} at index {index}`` for arrays.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def check_integer(name, value, low=None, high=None):
    """``value`` if it is an integer in ``[low, high)`` (either bound may be
    ``None``), not a ``bool`` or an array; otherwise a ``ValueError`` naming
    ``name``."""
    # An exact int, the common case, skips the isinstance test and
    # operator.index (a bool's type is bool, not int).
    if type(value) is int:
        number = value
    elif isinstance(value, (bool, np.ndarray)):
        number = None
    else:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
    if (number is not None and (low is None or number >= low)
            and (high is None or number < high)):
        return value
    if high is None:
        bounds = "" if low is None else f" >= {low}"
    else:
        bounds = f" < {high}" if low is None else f" in [{low}, {high})"
    raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def check_integers(name, values, low=None, high=None):
    """``values`` as a tuple, unchanged, if every entry passes
    :func:`check_integer` with these bounds; otherwise its ``ValueError``
    for the first entry that does not."""
    values = tuple(values)
    for value in values:
        check_integer(name, value, low, high)
    return values


def check_real(name, value, above=None, at_least=None, below=None, at_most=None):
    """``value`` if it is a finite real (not a ``bool``) inside the interval
    the given bounds describe; otherwise a ``ValueError`` naming ``name``."""
    # An exact float skips both isinstance tests; float and int come first
    # in the tuple, so a numpy float or an int skips the costly ABC check of
    # numbers.Real.  The comparisons with infinity reject NaN, and unlike
    # math.isfinite they take an int of any size.
    if ((type(value) is float
         or (not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))))
            and -math.inf < value < math.inf
            and (above is None or value > above) and (at_least is None or value >= at_least)
            and (below is None or value < below) and (at_most is None or value <= at_most)):
        return value
    low = f"({above}" if above is not None else f"[{at_least}" if at_least is not None else "(-inf"
    high = f"{below})" if below is not None else f"{at_most}]" if at_most is not None else "inf)"
    raise ValueError(f"{name} must be a finite real in {low}, {high}, got {value!r}")


def check_finite_array(name, values):
    """``values`` (an array) if no entry is NaN or ±inf; otherwise a
    ``ValueError`` naming ``name``, the first bad entry and its index."""
    finite = np.isfinite(values)
    if finite.all():
        return values
    first = int(np.flatnonzero(~finite)[0])
    index = tuple(int(i) for i in np.unravel_index(first, values.shape))
    raise ValueError(f"{name} must be finite, got {values.flat[first]} at index "
                     f"{index[0] if len(index) == 1 else index}")
