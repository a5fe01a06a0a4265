"""Put the WSC objective's Tensor-graph oracle
(``tests/core/reference_wsc_graph.py``) on the import path: the LSTM suite's
train-step test runs the whole per-step graph under it."""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "core"))
