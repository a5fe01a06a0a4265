"""Golden seeded outputs: all 12 paper tables and a map-matched dataset, byte for byte.

Each case recomputes a seeded result and compares its canonical JSON text
with the file committed next to this module, so any change to the numbers
(a refactor that reorders a float reduction, a different RNG draw, a changed
default) fails here with the first differing line.  Every table runner of
``repro.evaluation`` (Table II, Tables III-XII and Fig. 7) has a case at
``HarnessConfig()``, and a guard test fails when a new runner lands unpinned.

The files are written once and not regenerated by refactors that claim to
keep outputs identical.  To regenerate them after a deliberate output change:

    PYTHONPATH=src python tests/golden/test_golden_tables.py [case ...]
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.datasets import DatasetScale, aalborg
import repro.evaluation
from repro.evaluation import (
    HarnessConfig,
    run_fig7_pretraining,
    run_table2_dataset_statistics,
    run_table3_overall,
    run_table4_recommendation,
    run_table5_curriculum_design,
    run_table6_ablation,
    run_table7_weak_labels,
    run_table8_temporal,
    run_table9_pim_temporal,
    run_table10_supervised_transfer,
    run_table11_lambda,
    run_table12_metasets,
)

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
    "table2_dataset_statistics": lambda: run_table2_dataset_statistics(
        HarnessConfig(), cities=("aalborg", "harbin", "chengdu")),
    "table3_overall": lambda: run_table3_overall(HarnessConfig()),
    "table4_recommendation": lambda: run_table4_recommendation(HarnessConfig()),
    "table5_curriculum_design": lambda: run_table5_curriculum_design(
        HarnessConfig(), city_name="aalborg"),
    "table6_ablation": lambda: run_table6_ablation(HarnessConfig(), city_name="aalborg"),
    "table7_weak_labels": lambda: run_table7_weak_labels(HarnessConfig(), cities=("harbin",)),
    "table8_temporal": lambda: run_table8_temporal(HarnessConfig(), cities=("aalborg",)),
    "table9_pim_temporal": lambda: run_table9_pim_temporal(
        HarnessConfig(), cities=("aalborg",)),
    "table10_supervised_transfer": lambda: run_table10_supervised_transfer(
        HarnessConfig(), city_name="aalborg", methods=("PathRank", "DeepGTT")),
    "table11_lambda": lambda: run_table11_lambda(
        HarnessConfig(), city_name="aalborg", lambdas=(0.0, 0.4, 0.8, 1.0)),
    "table12_metasets": lambda: run_table12_metasets(
        HarnessConfig(), city_name="aalborg", meta_set_counts=(2, 4)),
    "fig7_pretraining": lambda: run_fig7_pretraining(
        HarnessConfig(), city_name="aalborg", label_fractions=(0.5, 1.0)),
    "aalborg_tiny_mapmatched": mapmatched_dataset_summary,
}


def test_every_table_runner_is_pinned():
    runners = [name for name in repro.evaluation.__all__ if name.startswith("run_")]
    assert runners
    assert [name for name in runners if name.removeprefix("run_") not in CASES] == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    actual = canonical_json(CASES[name]())
    assert actual.splitlines() == expected.splitlines()


if __name__ == "__main__":
    for case_name in sys.argv[1:] or sorted(CASES):
        (GOLDEN_DIR / f"{case_name}.json").write_text(canonical_json(CASES[case_name]()))
        print(f"wrote {case_name}.json")
