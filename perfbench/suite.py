"""The paper-table suite: the 12 runners of ``benchmarks/`` and their checks.

Each entry calls one ``repro.evaluation`` runner with the arguments of its
``benchmarks/bench_table*.py`` / ``bench_fig7_pretraining.py`` file, and its
check re-applies that file's shape assertions.  A check raises
:class:`CheckFailed`; every metric of every runner must also be finite.
"""

from __future__ import annotations

import math
from statistics import median

from repro.evaluation import harness

BASELINES = ("Node2vec", "DGI", "GMI", "MB", "BERT", "InfoGraph", "PIM")


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def all_numbers(tree):
    """Every number in a nested result dictionary."""
    if isinstance(tree, dict):
        for value in tree.values():
            yield from all_numbers(value)
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield tree


def expect_tasks(tasks_by_method, *tasks):
    for method, row in tasks_by_method.items():
        for task in tasks:
            expect(task in row, f"{method} has no {task} row")


def check_table2(rows):
    expect(set(rows) == {"aalborg", "harbin", "chengdu"}, "table2 cities")
    for stats in rows.values():
        expect(stats["num_nodes"] > 0, "table2 empty network")
        expect(stats["num_edges"] > stats["num_nodes"] // 2, "table2 sparse network")
        expect(stats["labeled_paths"] <= stats["unlabeled_paths"], "table2 labels")
    density = {name: s["num_edges"] / s["num_nodes"] for name, s in rows.items()}
    expect(density["chengdu"] >= density["aalborg"], "table2 density order")


def check_table3(results):
    rows = results["aalborg"]
    expect("WSCCL" in rows and len(rows) == 13, "table3 methods")
    graph_taus = [rows[m]["ranking"]["tau"] for m in ("Node2vec", "DGI", "GMI")]
    expect(rows["WSCCL"]["ranking"]["tau"] >= median(graph_taus) - 0.35, "table3 tau")
    tt_maes = [tasks["travel_time"]["MAE"] for tasks in rows.values()
               if "travel_time" in tasks]
    expect(rows["WSCCL"]["travel_time"]["MAE"] <= 2.0 * min(tt_maes), "table3 MAE")


def check_table4(results):
    rows = results["aalborg"]
    expect("WSCCL" in rows, "table4 WSCCL row")
    for metrics in rows.values():
        expect(0.0 <= metrics["Acc"] <= 1.0 and 0.0 <= metrics["HR"] <= 1.0,
               "table4 range")
    expect(rows["WSCCL"]["Acc"] >= 0.5, "table4 accuracy")
    others = [m["Acc"] for name, m in rows.items() if name != "WSCCL"]
    expect(rows["WSCCL"]["Acc"] >= median(others) - 0.2, "table4 vs baselines")


def check_table5(results):
    rows = results["aalborg"]
    expect(set(rows) == {"Heuristic", "WSCCL"}, "table5 variants")
    expect_tasks(rows, "travel_time", "ranking")
    for variant in rows.values():
        expect(-1.0 <= variant["ranking"]["tau"] <= 1.0, "table5 tau range")
        expect(variant["travel_time"]["MAE"] > 0, "table5 MAE")


def check_table6(results):
    rows = results["aalborg"]
    expect(set(rows) == {"w/o CL", "w/o Global", "w/o Local", "WSCCL"}, "table6 variants")
    expect_tasks(rows, "travel_time", "ranking")
    expect(rows["w/o Global"]["ranking"]["tau"] <= rows["WSCCL"]["ranking"]["tau"] + 0.25,
           "table6 global loss")


def check_table7(results):
    rows = results["harbin"]
    expect(set(rows) == {"WSCCL-TCI", "WSCCL-POP"}, "table7 variants")
    expect_tasks(rows, "travel_time", "ranking")
    ratio = rows["WSCCL-POP"]["travel_time"]["MAE"] / rows["WSCCL-TCI"]["travel_time"]["MAE"]
    expect(0.4 <= ratio <= 2.5, "table7 POP/TCI ratio")


def check_table8(results):
    rows = results["aalborg"]
    expect(set(rows) == {"WSCCL", "WSCCL-NT"}, "table8 variants")
    expect_tasks(rows, "travel_time", "ranking")
    wsccl, wsccl_nt = rows["WSCCL"], rows["WSCCL-NT"]
    better_tt = wsccl["travel_time"]["MAE"] <= wsccl_nt["travel_time"]["MAE"] * 1.2
    better_rank = wsccl["ranking"]["tau"] >= wsccl_nt["ranking"]["tau"] - 0.15
    expect(better_tt or better_rank, "table8 temporal variant dominated")


def check_table9(results):
    rows = results["aalborg"]
    expect(set(rows) == {"PIM-Temporal", "WSCCL"}, "table9 variants")
    expect_tasks(rows, "travel_time", "ranking")
    expect(rows["WSCCL"]["ranking"]["tau"] >= rows["PIM-Temporal"]["ranking"]["tau"] - 0.15,
           "table9 tau")


def check_table10(results):
    rows = results["aalborg"]
    for name in ("PathRank-PR", "PathRank-TTE", "DeepGTT-PR", "DeepGTT-TTE", "WSCCL"):
        expect(name in rows, f"table10 {name} row")
    expect_tasks(rows, "travel_time", "ranking")
    primary = rows["PathRank-PR"]["travel_time"]["MAE"]
    expect(primary <= rows["PathRank-TTE"]["travel_time"]["MAE"] * 1.5, "table10 transfer")


def check_table11(results):
    rows = results["aalborg"]
    expect(set(rows) == {0.0, 0.4, 0.8, 1.0}, "table11 sweep points")
    expect_tasks(rows, "travel_time", "ranking")
    best = max(rows[v]["ranking"]["tau"] for v in rows if v > 0.0)
    expect(best >= rows[0.0]["ranking"]["tau"] - 0.05, "table11 lambda")


def check_table12(results):
    rows = results["aalborg"]
    expect(set(rows) == {2, 4}, "table12 sweep points")
    expect_tasks(rows, "travel_time", "ranking")
    for point in rows.values():
        expect(-1.0 <= point["ranking"]["tau"] <= 1.0, "table12 tau range")


def check_fig7(results):
    series = results["aalborg"]
    expect(set(series) == {"scratch", "pretrained"}, "fig7 series")
    for mode in series.values():
        expect(set(mode) == {0.5, 1.0}, "fig7 label fractions")
    scratch = series["scratch"][1.0]["travel_time"]["MAE"]
    expect(series["pretrained"][1.0]["travel_time"]["MAE"] <= scratch * 1.4, "fig7 MAE")


#: ``(name, runner, keyword arguments, check)`` in paper order.
RUNNERS = (
    ("table2", harness.run_table2_dataset_statistics,
     {"cities": ("aalborg", "harbin", "chengdu")}, check_table2),
    ("table3", harness.run_table3_overall,
     {"cities": ("aalborg",), "methods": BASELINES, "include_supervised": True,
      "include_edge_sum": True}, check_table3),
    ("table4", harness.run_table4_recommendation,
     {"cities": ("aalborg",), "methods": BASELINES}, check_table4),
    ("table5", harness.run_table5_curriculum_design, {"city_name": "aalborg"}, check_table5),
    ("table6", harness.run_table6_ablation, {"city_name": "aalborg"}, check_table6),
    ("table7", harness.run_table7_weak_labels, {"cities": ("harbin",)}, check_table7),
    ("table8", harness.run_table8_temporal, {"cities": ("aalborg",)}, check_table8),
    ("table9", harness.run_table9_pim_temporal, {"cities": ("aalborg",)}, check_table9),
    ("table10", harness.run_table10_supervised_transfer,
     {"city_name": "aalborg", "methods": ("PathRank", "DeepGTT")}, check_table10),
    ("table11", harness.run_table11_lambda,
     {"city_name": "aalborg", "lambdas": (0.0, 0.4, 0.8, 1.0)}, check_table11),
    ("table12", harness.run_table12_metasets,
     {"city_name": "aalborg", "meta_set_counts": (2, 4)}, check_table12),
    ("fig7", harness.run_fig7_pretraining,
     {"city_name": "aalborg", "label_fractions": (0.5, 1.0)}, check_fig7),
)


def run_runner(entry, config):
    """Run one runner by looking it up on ``harness`` at call time.

    The lookup (rather than the function object captured in :data:`RUNNERS`)
    lets a tracer that patched ``harness`` see the call.
    """
    name, runner, kwargs, check = entry
    results = getattr(harness, runner.__name__)(config, **kwargs)
    expect(all(math.isfinite(v) for v in all_numbers(results)),
           f"{name} produced a non-finite metric")
    check(results)
    return results
