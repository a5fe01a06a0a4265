"""Golden seeded outputs: all 12 paper tables and a map-matched dataset, byte for byte.

Each case recomputes a seeded result and compares its canonical JSON text
with the file committed next to this module, so any change to the numbers
(a refactor that reorders a float reduction, a different RNG draw, a changed
default) fails here with the first differing line.  The JSON sorts its keys,
so each table case also checks the order of its cities and rows
(``ROW_ORDER``) on the same result.  Every table runner of
``repro.evaluation`` (Table II, Tables III-XII and Fig. 7) has a case at
``HarnessConfig()``, and a guard test fails when a new runner lands unpinned.
The tables score representations through gradient-boosted trees, whose
predictions move only when a value crosses a split, so one more case pins a
hash of every fitted model's raw output (``baseline_representations``), and
one more pins every WSCCL variant fit at ``HarnessConfig.benchmark()``, the
scale ``perfbench/`` times (``wsccl_variant_fits``), one pins the node2vec
walks both of WSCCL's graph embeddings start from (``node2vec_walks``), one
pins the embeddings themselves (``node2vec_embeddings``), and one pins every
trip the cities are built from (``simulated_trips``).

The files are written once and not regenerated by refactors that claim to
keep outputs identical.  Cities and node2vec fits are memoized per process
(``repro._memo``), so a case run cold and then warm must match its file both
times, and no runner may mutate a memoized city.  To regenerate the files
after a deliberate output change:

    PYTHONPATH=src python tests/golden/test_golden_tables.py [case ...]
"""

from __future__ import annotations

import hashlib
import dataclasses
import json
import pathlib
import pickle
import sys

import numpy as np
import pytest

from repro import _memo
from repro.core import WSCCLConfig
from repro.core.model import edge_topology_features, slot_embeddings
from repro.datasets import DatasetScale, aalborg
from repro.datasets.tasks import task_split
import repro.evaluation
from repro.graph import Node2Vec, RandomWalker
from repro.evaluation import (
    EDGE_SUM_BASELINES,
    SUPERVISED_BASELINES,
    UNSUPERVISED_BASELINES,
    HarnessConfig,
    build_dataset,
    build_supervised_baseline,
    fit_unsupervised_baseline,
    fit_wsccl,
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
from repro.serving import PathEmbeddingService
from repro.temporal import build_temporal_graph

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


def array_digest(array):
    """``"<shape> <sha256 of the float64 bytes>"`` of a model's output."""
    array = np.ascontiguousarray(array, dtype=np.float64)
    return f"{'x'.join(map(str, array.shape))} {hashlib.sha256(array.tobytes()).hexdigest()}"


def baseline_representations():
    """Hashes of every fitted model's output on the tiny Aalborg ranking paths.

    Covers the eight unsupervised ``encode``s, the supervised baselines'
    ``encode`` and ``predict`` per task they train on, four WSCCL variants
    directly and through a service, the λ = 0 and λ = 1 variants' ``encode``,
    and PathRank loaded from WSCCL's encoder.
    """
    config = HarnessConfig()
    city = build_dataset("aalborg", config)
    paths = [e.temporal_path for e in city.tasks.ranking]
    digests = {}
    for name in UNSUPERVISED_BASELINES + ("PIM-Temporal",):
        model = fit_unsupervised_baseline(name, city, config)
        digests[f"{name} encode"] = array_digest(model.encode(paths))
    for name in SUPERVISED_BASELINES + EDGE_SUM_BASELINES:
        tasks = ("travel_time", "ranking") if name in SUPERVISED_BASELINES else ("travel_time",)
        for task in tasks:
            train, _ = task_split(task, getattr(city.tasks, task),
                                  config.test_fraction, config.seed)
            model = build_supervised_baseline(name, config)
            model.fit_supervised(train, task, city=city, max_batches=config.max_batches)
            if name in SUPERVISED_BASELINES:
                digests[f"{name} {task} encode"] = array_digest(model.encode(paths))
            digests[f"{name} {task} predict"] = array_digest(model.predict(paths))
    for variant in ("full", "no_cl", "heuristic", "no_temporal"):
        wsccl = fit_wsccl(city, config, variant=variant)
        digests[f"WSCCL {variant} encode"] = array_digest(wsccl.encode(paths))
        digests[f"WSCCL {variant} service"] = array_digest(
            PathEmbeddingService(wsccl).embed(paths))
        if variant == "full":
            pretrained_state = wsccl.encoder_state_dict()
    for variant in ("no_global", "no_local"):
        digests[f"WSCCL {variant} encode"] = array_digest(
            fit_wsccl(city, config, variant=variant).encode(paths))
    pathrank = build_supervised_baseline("PathRank", config, pretrained_state=pretrained_state)
    digests["PathRank pretrained encode"] = array_digest(pathrank.fit(city).encode(paths))
    return digests


def state_digest(state):
    """:func:`array_digest` of a state dict's arrays, raveled in key order."""
    return array_digest(np.concatenate([np.ravel(state[name]) for name in sorted(state)]))


def wsccl_variant_fits():
    """Hashes of the six WSCCL variants fitted at ``HarnessConfig.benchmark()``.

    One fit per variant on Aalborg with POP labels and on Harbin with TCI
    labels; each covers the trained state dict, every curriculum expert's
    state dict, the per-epoch losses and ``encode`` of 300 paths: the
    city's 100-path training corpus, then its first 200 ranking paths.
    """
    config = HarnessConfig.benchmark()
    digests = {}
    for city_name, weak_labels in (("aalborg", "pop"), ("harbin", "tci")):
        city = build_dataset(city_name, config)
        paths = (city.unlabeled.temporal_paths
                 + [e.temporal_path for e in city.tasks.ranking])[:300]
        for variant in ("full", "no_cl", "heuristic", "no_global", "no_local", "no_temporal"):
            wsccl = fit_wsccl(city, config, variant=variant, weak_labels=weak_labels)
            key = f"{city_name} {weak_labels} {variant}"
            digests[f"{key} state"] = state_digest(wsccl.encoder_state_dict())
            for index, expert in enumerate(wsccl.experts):
                digests[f"{key} expert {index} state"] = state_digest(expert.state_dict())
            digests[f"{key} epoch_losses"] = array_digest(wsccl.history.epoch_losses)
            digests[f"{key} encode"] = array_digest(wsccl.encode(paths))
    return digests


class _GraphOf(Node2Vec):
    """A ``Node2Vec`` whose ``fit`` returns the graph it was given."""

    def fit(self, neighbors_fn, num_nodes):
        return neighbors_fn, num_nodes


def node2vec_walks():
    """sha256 digests of ``RandomWalker.generate_walks`` at seed 0.

    Covers the temporal graph at 24 and 48 slots per day and the undirected
    road neighbourhoods of the three tiny cities (as ``fit_road_network``
    builds them), each at the pipeline's two walk settings: ``(1, 5)`` of
    ``WSCCLConfig.test_scale()`` and ``(3, 10)`` of the default config and
    the Node2vec baseline.
    """
    graphs = {}
    for slots in (24, 48):
        graphs[f"temporal {slots} slots"] = _GraphOf().fit_temporal_graph(
            build_temporal_graph(slots_per_day=slots))
    for name in ("aalborg", "harbin", "chengdu"):
        graphs[f"{name} road"] = _GraphOf().fit_road_network(
            build_dataset(name, HarnessConfig()).network)
    digests = {}
    for graph, (neighbors_fn, num_nodes) in graphs.items():
        for walks_per_node, walk_length in ((1, 5), (3, 10)):
            walks = RandomWalker(neighbors_fn, num_nodes, seed=0).generate_walks(
                walks_per_node, walk_length)
            text = json.dumps(walks, separators=(",", ":"))
            digests[f"{graph} {walks_per_node}x{walk_length}"] = (
                f"{len(walks)} {hashlib.sha256(text.encode()).hexdigest()}")
    return digests


def node2vec_embeddings():
    """:func:`array_digest` of WSCCL's two frozen node2vec features.

    ``slot_embeddings`` (Eq. 2) and ``edge_topology_features`` (Eq. 5) of
    the three cities at ``HarnessConfig()`` and ``HarnessConfig.benchmark()``
    scale, under ``WSCCLConfig.test_scale()``, the default ``WSCCLConfig()``
    and ``HarnessConfig.benchmark().wsccl``.
    """
    configs = {"test_scale": WSCCLConfig.test_scale(), "default": WSCCLConfig(),
               "benchmark": HarnessConfig.benchmark().wsccl}
    networks = {f"{name} {scale}": build_dataset(name, harness).network
                for scale, harness in (("tiny", HarnessConfig()),
                                       ("benchmark", HarnessConfig.benchmark()))
                for name in ("aalborg", "harbin", "chengdu")}
    digests = {}
    for config_name, config in configs.items():
        digests[f"{config_name} slots"] = array_digest(slot_embeddings(config))
        for network_name, network in networks.items():
            digests[f"{config_name} {network_name} topology"] = array_digest(
                edge_topology_features(network, config))
    return digests


def trips_digest(city):
    """sha256 of a city's trips, ranking scores and weak-label distribution.

    Each trip contributes its path, departure time, travel time, origin,
    destination and alternatives; floats are written with ``float.hex``.
    """
    def edges(path):
        return [int(edge) for edge in path]

    record = {
        "trips": [
            [edges(trip.path), trip.departure_time.day_of_week,
             float(trip.departure_time.seconds).hex(), float(trip.travel_time).hex(),
             int(trip.origin), int(trip.destination),
             [edges(alternative) for alternative in trip.alternatives]]
            for trip in city.trips],
        "ranking_scores": [float(example.score).hex() for example in city.tasks.ranking],
        "weak_label_distribution": city.unlabeled.label_distribution(),
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{len(city.trips)} {hashlib.sha256(text.encode()).hexdigest()}"


def simulated_trips():
    """:func:`trips_digest` of the three cities at ``HarnessConfig()`` and
    ``HarnessConfig.benchmark()``, with corpus paths from the simulator and
    from map-matched GPS."""
    digests = {}
    for scale, config in (("tiny", HarnessConfig()), ("benchmark", HarnessConfig.benchmark())):
        for paths_from in ("simulator", "mapmatched"):
            config = dataclasses.replace(config, paths_from=paths_from)
            for name in ("aalborg", "harbin", "chengdu"):
                digests[f"{name} {scale} {paths_from}"] = trips_digest(
                    build_dataset(name, config))
    return digests


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
    "baseline_representations": baseline_representations,
    "wsccl_variant_fits": wsccl_variant_fits,
    "node2vec_walks": node2vec_walks,
    "node2vec_embeddings": node2vec_embeddings,
    "simulated_trips": simulated_trips,
}


_STATISTICS = ["name", "num_nodes", "num_edges", "unlabeled_paths", "labeled_paths",
               "weak_label_distribution"]
_UNSUPERVISED = ["Node2vec", "DGI", "GMI", "MB", "BERT", "InfoGraph", "PIM"]

#: Each table case's cities, and each city's rows, in the order the runner
#: inserts them.  ``canonical_json`` sorts keys, so only this sees a runner
#: that reorders its rows; ``format_metric_table`` and
#: ``format_nested_results`` print in insertion order.  A dict nests one
#: level deeper (Fig. 7's label fractions per series).
ROW_ORDER = {
    "table2_dataset_statistics": {
        "aalborg": _STATISTICS, "harbin": _STATISTICS, "chengdu": _STATISTICS},
    "table3_overall": {"aalborg": _UNSUPERVISED + [
        "DeepGTT", "HMTRL", "PathRank", "GCN", "STGCN", "WSCCL"]},
    "table4_recommendation": {"aalborg": _UNSUPERVISED + ["WSCCL"]},
    "table5_curriculum_design": {"aalborg": ["Heuristic", "WSCCL"]},
    "table6_ablation": {"aalborg": ["w/o CL", "w/o Global", "w/o Local", "WSCCL"]},
    "table7_weak_labels": {"harbin": ["WSCCL-TCI", "WSCCL-POP"]},
    "table8_temporal": {"aalborg": ["WSCCL", "WSCCL-NT"]},
    "table9_pim_temporal": {"aalborg": ["PIM-Temporal", "WSCCL"]},
    "table10_supervised_transfer": {"aalborg": [
        "PathRank-PR", "PathRank-TTE", "DeepGTT-PR", "DeepGTT-TTE", "WSCCL"]},
    "table11_lambda": {"aalborg": [0.0, 0.4, 0.8, 1.0]},
    "table12_metasets": {"aalborg": [2, 4]},
    "fig7_pretraining": {"aalborg": {"scratch": [0.5, 1.0], "pretrained": [0.5, 1.0]}},
}


def key_order(value, shape):
    """``value``'s keys in insertion order, nested as deep as ``shape`` is."""
    if isinstance(shape, dict):
        return [(key, key_order(value[key], shape.get(key))) for key in value]
    return list(value)


def test_every_table_runner_is_pinned():
    runners = [name for name in repro.evaluation.__all__ if name.startswith("run_")]
    assert runners
    assert [name for name in runners if name.removeprefix("run_") not in CASES] == []
    assert [name for name in runners if name.removeprefix("run_") not in ROW_ORDER] == []


def assert_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    result = CASES[name]()
    assert canonical_json(result).splitlines() == expected.splitlines()
    if name in ROW_ORDER:
        assert key_order(result, ROW_ORDER[name]) == key_order(ROW_ORDER[name], ROW_ORDER[name])


def city_digests():
    """blake2b digests of the three memoized ``HarnessConfig()`` cities."""
    return {name: hashlib.blake2b(pickle.dumps(build_dataset(name, HarnessConfig())))
            .hexdigest() for name in ("aalborg", "harbin", "chengdu")}


@pytest.fixture(scope="module")
def memoized_cities():
    """``city_digests()`` before the module's first golden case, and the
    set of cases that have passed since."""
    return city_digests(), set()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, memoized_cities):
    assert_matches_golden(name)
    memoized_cities[1].add(name)


def test_no_runner_mutates_a_memoized_city(memoized_cities):
    # pytest runs a module's tests in file order, so every golden case has
    # run by now on the memoized cities; it must come before the memo is
    # cleared below.  A case that has not passed in this run (deselected,
    # or failed) runs here instead.  The two cases left out read no
    # memoized city at HarnessConfig().
    before, passed = memoized_cities
    for name in sorted(CASES.keys() - passed - {"aalborg_tiny_mapmatched", "wsccl_variant_fits"}):
        CASES[name]()
    assert city_digests() == before


def test_matches_golden_cold_then_warm():
    _memo.clear()
    assert_matches_golden("table8_temporal")
    assert_matches_golden("table8_temporal")


if __name__ == "__main__":
    for case_name in sys.argv[1:] or sorted(CASES):
        (GOLDEN_DIR / f"{case_name}.json").write_text(canonical_json(CASES[case_name]()))
        print(f"wrote {case_name}.json")
