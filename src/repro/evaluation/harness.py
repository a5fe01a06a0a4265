"""Table/figure runners: one function per experiment in the paper's §VII.

Every function returns plain dictionaries (method -> metrics) so a caller
can print the table, pin it byte for byte (``tests/golden/``) or assert on
its *shape* (who wins, orderings; ``perfbench/suite.py``).

Frozen representation models are scored through
:func:`representation_task_results`: one
:class:`~repro.serving.PathEmbeddingService` per model serves the task
embeddings, and exact-split gradient-boosting models fit them.
"""

from __future__ import annotations

import dataclasses
import numbers

from ..datasets.tasks import TASKS, task_split
from ..downstream.tasks import ensure_service, evaluate_task, score_task
from .experiment import (
    EDGE_SUM_BASELINES,
    SUPERVISED_BASELINES,
    UNSUPERVISED_BASELINES,
    build_dataset,
    build_supervised_baseline,
    fit_unsupervised_baseline,
    fit_wsccl,
)

__all__ = [
    "representation_task_results",
    "supervised_task_results",
    "run_table2_dataset_statistics",
    "run_table3_overall",
    "run_table4_recommendation",
    "run_table5_curriculum_design",
    "run_table6_ablation",
    "run_table7_weak_labels",
    "run_table8_temporal",
    "run_table9_pim_temporal",
    "run_table10_supervised_transfer",
    "run_table11_lambda",
    "run_table12_metasets",
    "run_fig7_pretraining",
]


# ----------------------------------------------------------------------
# Shared evaluation helpers
# ----------------------------------------------------------------------
def _check_tasks(tasks):
    """Reject a bare string or an unknown task name before any task is scored."""
    if isinstance(tasks, str) or not set(tasks) <= set(TASKS):
        raise ValueError(f"tasks must be a sequence of names from {TASKS}, got {tasks!r}")


def representation_task_results(model, city, config, tasks=("travel_time", "ranking")):
    """GBR/GBC evaluation of a frozen representation model on selected tasks.

    Embeddings are obtained through one shared
    :class:`~repro.serving.PathEmbeddingService` per model, so paths that
    recur across the selected tasks hit the embedding cache instead of being
    re-encoded.
    """
    _check_tasks(tasks)
    service = ensure_service(model)
    return {
        task: evaluate_task(task, service, getattr(city.tasks, task),
                            test_fraction=config.test_fraction, seed=config.seed,
                            n_estimators=config.n_estimators).as_row()
        for task in tasks
    }


def supervised_task_results(model, city, config, task, train_limit=None):
    """Train a supervised baseline on ``task``'s labels and score the test
    split; ``train_limit`` (``None`` or an integer >= 2) caps the train split."""
    _check_tasks((task,))
    if train_limit is not None and not (
            isinstance(train_limit, numbers.Integral) and train_limit >= 2):
        raise ValueError(f"train_limit must be None or an integer >= 2, got {train_limit!r}")
    train, test = task_split(task, getattr(city.tasks, task), config.test_fraction, config.seed)
    model.fit_supervised(train[:train_limit], task, city=city, max_batches=config.max_batches)
    return score_task(task, test, model.predict([e.temporal_path for e in test])).as_row()


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def run_table2_dataset_statistics(config, cities=("aalborg", "harbin", "chengdu")):
    """Regenerate the dataset statistics table."""
    rows = {}
    for name in cities:
        city = build_dataset(name, config)
        rows[name] = city.statistics()
    return rows


# ----------------------------------------------------------------------
# Table III — overall accuracy (travel time + ranking)
# ----------------------------------------------------------------------
def run_table3_overall(config, cities=("aalborg",), methods=None,
                       include_supervised=True, include_edge_sum=True):
    """Travel-time and ranking results for WSCCL and the baselines."""
    methods = methods or UNSUPERVISED_BASELINES
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        city_rows = {}

        for name in methods:
            model = fit_unsupervised_baseline(name, city, config)
            city_rows[name] = representation_task_results(model, city, config)

        if include_supervised:
            for name in SUPERVISED_BASELINES:
                city_rows[name] = {
                    task: supervised_task_results(
                        build_supervised_baseline(name, config), city, config, task)
                    for task in ("travel_time", "ranking")
                }
        if include_edge_sum:
            for name in EDGE_SUM_BASELINES:
                city_rows[name] = {"travel_time": supervised_task_results(
                    build_supervised_baseline(name, config), city, config, "travel_time")}

        wsccl = fit_wsccl(city, config, variant="full")
        city_rows["WSCCL"] = representation_task_results(wsccl, city, config)
        results[city_name] = city_rows
    return results


# ----------------------------------------------------------------------
# Table IV — path recommendation
# ----------------------------------------------------------------------
def run_table4_recommendation(config, cities=("aalborg",), methods=None):
    """Path recommendation accuracy / hit rate for WSCCL and baselines."""
    methods = methods or UNSUPERVISED_BASELINES
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        city_rows = {}
        for name in methods:
            model = fit_unsupervised_baseline(name, city, config)
            city_rows[name] = representation_task_results(
                model, city, config, tasks=("recommendation",))["recommendation"]
        wsccl = fit_wsccl(city, config, variant="full")
        city_rows["WSCCL"] = representation_task_results(
            wsccl, city, config, tasks=("recommendation",))["recommendation"]
        results[city_name] = city_rows
    return results


# ----------------------------------------------------------------------
# Table V — learned vs heuristic curriculum
# ----------------------------------------------------------------------
def run_table5_curriculum_design(config, city_name="aalborg"):
    """Learned curriculum (WSCCL) vs the length-sorted heuristic curriculum."""
    city = build_dataset(city_name, config)
    rows = {}
    for label, variant in (("Heuristic", "heuristic"), ("WSCCL", "full")):
        model = fit_wsccl(city, config, variant=variant)
        rows[label] = representation_task_results(model, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table VI — ablation of CL, global and local losses
# ----------------------------------------------------------------------
def run_table6_ablation(config, city_name="aalborg"):
    """WSCCL vs w/o CL, w/o Global, w/o Local."""
    city = build_dataset(city_name, config)
    rows = {}
    variants = (
        ("w/o CL", "no_cl"),
        ("w/o Global", "no_global"),
        ("w/o Local", "no_local"),
        ("WSCCL", "full"),
    )
    for label, variant in variants:
        model = fit_wsccl(city, config, variant=variant)
        rows[label] = representation_task_results(model, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table VII — POP vs TCI weak labels
# ----------------------------------------------------------------------
def run_table7_weak_labels(config, cities=("harbin",)):
    """WSCCL trained with POP vs TCI weak labels."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        for label, weak in (("WSCCL-TCI", "tci"), ("WSCCL-POP", "pop")):
            model = fit_wsccl(city, config, variant="full", weak_labels=weak)
            rows[label] = representation_task_results(model, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table VIII — effect of temporal information
# ----------------------------------------------------------------------
def run_table8_temporal(config, cities=("aalborg",)):
    """WSCCL vs WSCCL-NT (temporal embedding removed)."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        for label, variant in (("WSCCL", "full"), ("WSCCL-NT", "no_temporal")):
            model = fit_wsccl(city, config, variant=variant)
            rows[label] = representation_task_results(model, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table IX — WSCCL vs PIM-Temporal
# ----------------------------------------------------------------------
def run_table9_pim_temporal(config, cities=("aalborg",)):
    """WSCCL vs PIM with a concatenated temporal embedding."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        pim_temporal = fit_unsupervised_baseline("PIM-Temporal", city, config)
        rows["PIM-Temporal"] = representation_task_results(pim_temporal, city, config)
        wsccl = fit_wsccl(city, config, variant="full")
        rows["WSCCL"] = representation_task_results(wsccl, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table X — cross-task transfer of supervised baselines
# ----------------------------------------------------------------------
def run_table10_supervised_transfer(config, city_name="aalborg",
                                    methods=SUPERVISED_BASELINES):
    """Primary-task vs secondary-task performance of supervised methods.

    ``<Method>-PR`` is trained on travel time (primary) and transferred to
    ranking; ``<Method>-TTE`` is trained on ranking (primary) and transferred
    to travel time — matching the paper's naming where the suffix denotes the
    *secondary* task the representation is transferred to.
    """
    city = build_dataset(city_name, config)
    rows = {}
    for name in methods:
        # Train on the primary task; score the secondary one through the
        # frozen representations.
        for primary, secondary, suffix in (("travel_time", "ranking", "PR"),
                                           ("ranking", "travel_time", "TTE")):
            model = build_supervised_baseline(name, config)
            row = {primary: supervised_task_results(model, city, config, primary)}
            row.update(representation_task_results(model, city, config, tasks=(secondary,)))
            rows[f"{name}-{suffix}"] = {task: row[task] for task in ("travel_time", "ranking")}

    wsccl = fit_wsccl(city, config, variant="full")
    rows["WSCCL"] = representation_task_results(wsccl, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table XI — effect of λ
# ----------------------------------------------------------------------
def run_table11_lambda(config, city_name="aalborg",
                       lambdas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
    """Sweep the global/local balance λ."""
    city = build_dataset(city_name, config)
    rows = {}
    for value in lambdas:
        lambda_config = dataclasses.replace(
            config, wsccl=config.wsccl.with_overrides(lambda_balance=float(value)))
        model = fit_wsccl(city, lambda_config, variant="no_cl")
        rows[float(value)] = representation_task_results(model, city, lambda_config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table XII — effect of the number of meta-sets N
# ----------------------------------------------------------------------
def run_table12_metasets(config, city_name="aalborg", meta_set_counts=(2, 4, 6)):
    """Sweep the number of meta-sets / curriculum stages (N = M)."""
    city = build_dataset(city_name, config)
    rows = {}
    for count in meta_set_counts:
        sweep_config = dataclasses.replace(
            config,
            wsccl=config.wsccl.with_overrides(
                num_meta_sets=int(count), num_stages=int(count)),
        )
        model = fit_wsccl(city, sweep_config, variant="full")
        rows[int(count)] = representation_task_results(model, city, sweep_config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Fig. 7 — WSCCL as a pre-training method for PathRank
# ----------------------------------------------------------------------
def run_fig7_pretraining(config, city_name="aalborg",
                         label_fractions=(0.4, 0.7, 1.0)):
    """PathRank with and without WSCCL pre-training vs number of labels.

    Returns, per label fraction, the travel-time MAE and ranking τ of
    PathRank trained from scratch and PathRank whose encoder is initialised
    from a trained WSCCL model.
    """
    city = build_dataset(city_name, config)
    wsccl = fit_wsccl(city, config, variant="full")
    pretrained_state = wsccl.encoder_state_dict()

    tasks = ("travel_time", "ranking")
    train_sizes = {
        task: len(task_split(task, getattr(city.tasks, task),
                             config.test_fraction, config.seed)[0])
        for task in tasks
    }

    series = {"scratch": {}, "pretrained": {}}
    for fraction in label_fractions:
        for mode in ("scratch", "pretrained"):
            state = pretrained_state if mode == "pretrained" else None
            series[mode][float(fraction)] = {
                task: supervised_task_results(
                    build_supervised_baseline("PathRank", config, pretrained_state=state),
                    city, config, task,
                    train_limit=max(4, int(round(train_sizes[task] * fraction))))
                for task in tasks
            }
    return {city_name: series}
