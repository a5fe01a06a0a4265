"""Put the road-network oracle (``tests/roadnet/reference_search.py``) on the
import path for the map-matching oracle, which prices transitions with it."""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "roadnet"))
