"""Golden seeded outputs: Tables III/IV and a map-matched dataset, byte for byte.

Each case recomputes a seeded result and compares its canonical JSON text
with the file committed next to this module, so any change to the numbers
(a refactor that reorders a float reduction, a different RNG draw, a changed
default) fails here with the first differing line.

The files are written once and not regenerated by refactors that claim to
keep outputs identical.  To regenerate them after a deliberate output change:

    PYTHONPATH=src python tests/golden/test_golden_tables.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.datasets import DatasetScale, aalborg
from repro.evaluation import HarnessConfig, run_table3_overall, run_table4_recommendation

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent


def canonical_json(value):
    """Deterministic JSON text; floats are written with ``repr`` (exact)."""
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


def mapmatched_dataset_summary():
    city = aalborg(scale=DatasetScale.tiny(), seed=0, paths_from="mapmatched")
    paths = [
        {"path": list(tp.path),
         "day_of_week": tp.departure_time.day_of_week,
         "seconds": tp.departure_time.seconds}
        for tp in city.unlabeled.temporal_paths[:50]
    ]
    return {"statistics": city.statistics(), "first_paths": paths}


CASES = {
    "table3_overall": lambda: run_table3_overall(HarnessConfig()),
    "table4_recommendation": lambda: run_table4_recommendation(HarnessConfig()),
    "aalborg_tiny_mapmatched": mapmatched_dataset_summary,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    actual = canonical_json(CASES[name]())
    assert actual.splitlines() == expected.splitlines()


if __name__ == "__main__":
    for case_name in sys.argv[1:] or sorted(CASES):
        (GOLDEN_DIR / f"{case_name}.json").write_text(canonical_json(CASES[case_name]()))
        print(f"wrote {case_name}.json")
