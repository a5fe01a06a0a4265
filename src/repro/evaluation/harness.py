"""Table/figure runners: one function per experiment in the paper's §VII.

Every function returns plain dictionaries (city -> row label -> metrics) so
a caller can print the table, pin it byte for byte (``tests/golden/``) or
assert on its *shape* (who wins, orderings; ``perfbench/suite.py``).

There is one city loop, :func:`_table`: it builds each named city once and
nests the ``(label, row)`` pairs that a runner's row function yields for it,
in the order they are yielded.  A runner only lists its rows, and fits them
in that order; a WSCCL row is :func:`_wsccl_row`, a fit and its scores under
one config, and the sweeps of Tables XI and XII replace fields of
``config.wsccl``.

Frozen representation models are scored through
:func:`representation_task_results`: one
:class:`~repro.serving.PathEmbeddingService` per model serves the task
embeddings, and exact-split gradient-boosting models fit them.
"""

from __future__ import annotations

import dataclasses

from .._checks import check_integer
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
    if train_limit is not None:
        check_integer("train_limit", train_limit, low=2)
    train, test = task_split(task, getattr(city.tasks, task), config.test_fraction, config.seed)
    model.fit_supervised(train[:train_limit], task, city=city, max_batches=config.max_batches)
    return score_task(task, test, model.predict([e.temporal_path for e in test])).as_row()


def _table(config, city_names, rows):
    """Build each named city once and nest the ``(label, row)`` pairs that
    ``rows(city)`` yields: ``{city_name: {label: row, ...}, ...}``."""
    return {name: dict(rows(build_dataset(name, config))) for name in city_names}


def _wsccl_row(city, config, tasks=("travel_time", "ranking"), **fit):
    """Fit a WSCCL variant (``fit`` goes to :func:`fit_wsccl`) and score it
    on ``tasks`` under the same config."""
    return representation_task_results(fit_wsccl(city, config, **fit), city, config, tasks)


def _with_wsccl(config, **overrides):
    """``config`` with some of its WSCCL hyper-parameters replaced."""
    return dataclasses.replace(config, wsccl=dataclasses.replace(config.wsccl, **overrides))


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def run_table2_dataset_statistics(config, cities=("aalborg", "harbin", "chengdu")):
    """Regenerate the dataset statistics table."""
    return _table(config, cities, lambda city: city.statistics().items())


# ----------------------------------------------------------------------
# Table III — overall accuracy (travel time + ranking)
# ----------------------------------------------------------------------
def run_table3_overall(config, cities=("aalborg",), methods=None,
                       include_supervised=True, include_edge_sum=True):
    """Travel-time and ranking results for WSCCL and the baselines."""
    methods = methods or UNSUPERVISED_BASELINES

    def rows(city):
        for name in methods:
            yield name, representation_task_results(
                fit_unsupervised_baseline(name, city, config), city, config)
        for name in SUPERVISED_BASELINES if include_supervised else ():
            yield name, {task: supervised_task_results(
                build_supervised_baseline(name, config), city, config, task)
                for task in ("travel_time", "ranking")}
        for name in EDGE_SUM_BASELINES if include_edge_sum else ():
            yield name, {"travel_time": supervised_task_results(
                build_supervised_baseline(name, config), city, config, "travel_time")}
        yield "WSCCL", _wsccl_row(city, config)

    return _table(config, cities, rows)


# ----------------------------------------------------------------------
# Table IV — path recommendation
# ----------------------------------------------------------------------
def run_table4_recommendation(config, cities=("aalborg",), methods=None):
    """Path recommendation accuracy / hit rate for WSCCL and baselines."""
    methods = methods or UNSUPERVISED_BASELINES
    tasks = ("recommendation",)

    def rows(city):
        for name in methods:
            yield name, representation_task_results(
                fit_unsupervised_baseline(name, city, config), city, config,
                tasks)["recommendation"]
        yield "WSCCL", _wsccl_row(city, config, tasks)["recommendation"]

    return _table(config, cities, rows)


# ----------------------------------------------------------------------
# Tables V-VIII — WSCCL variants: curriculum design, ablation of CL and of
# the global and local losses, POP vs TCI weak labels, temporal information
# ----------------------------------------------------------------------
def run_table5_curriculum_design(config, city_name="aalborg"):
    """Learned curriculum (WSCCL) vs the length-sorted heuristic curriculum."""
    return _table(config, (city_name,), lambda city: (
        (label, _wsccl_row(city, config, variant=variant))
        for label, variant in (("Heuristic", "heuristic"), ("WSCCL", "full"))))


def run_table6_ablation(config, city_name="aalborg"):
    """WSCCL vs w/o CL, w/o Global, w/o Local."""
    variants = (("w/o CL", "no_cl"), ("w/o Global", "no_global"),
                ("w/o Local", "no_local"), ("WSCCL", "full"))
    return _table(config, (city_name,), lambda city: (
        (label, _wsccl_row(city, config, variant=variant)) for label, variant in variants))


def run_table7_weak_labels(config, cities=("harbin",)):
    """WSCCL trained with POP vs TCI weak labels."""
    return _table(config, cities, lambda city: (
        (label, _wsccl_row(city, config, variant="full", weak_labels=weak))
        for label, weak in (("WSCCL-TCI", "tci"), ("WSCCL-POP", "pop"))))


def run_table8_temporal(config, cities=("aalborg",)):
    """WSCCL vs WSCCL-NT (temporal embedding removed)."""
    return _table(config, cities, lambda city: (
        (label, _wsccl_row(city, config, variant=variant))
        for label, variant in (("WSCCL", "full"), ("WSCCL-NT", "no_temporal"))))


# ----------------------------------------------------------------------
# Table IX — WSCCL vs PIM-Temporal
# ----------------------------------------------------------------------
def run_table9_pim_temporal(config, cities=("aalborg",)):
    """WSCCL vs PIM with a concatenated temporal embedding."""
    def rows(city):
        yield "PIM-Temporal", representation_task_results(
            fit_unsupervised_baseline("PIM-Temporal", city, config), city, config)
        yield "WSCCL", _wsccl_row(city, config)

    return _table(config, cities, rows)


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
    def rows(city):
        for name in methods:
            # Train on the primary task; score the secondary one through the
            # frozen representations.
            for primary, secondary, suffix in (("travel_time", "ranking", "PR"),
                                               ("ranking", "travel_time", "TTE")):
                model = build_supervised_baseline(name, config)
                row = {primary: supervised_task_results(model, city, config, primary)}
                row.update(representation_task_results(model, city, config, tasks=(secondary,)))
                yield f"{name}-{suffix}", {task: row[task] for task in ("travel_time", "ranking")}
        yield "WSCCL", _wsccl_row(city, config)

    return _table(config, (city_name,), rows)


# ----------------------------------------------------------------------
# Tables XI and XII — effect of λ and of the number of meta-sets N
# ----------------------------------------------------------------------
def run_table11_lambda(config, city_name="aalborg",
                       lambdas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
    """Sweep the global/local balance λ."""
    return _table(config, (city_name,), lambda city: (
        (float(value), _wsccl_row(city, _with_wsccl(config, lambda_balance=float(value)),
                                  variant="no_cl"))
        for value in lambdas))


def run_table12_metasets(config, city_name="aalborg", meta_set_counts=(2, 4, 6)):
    """Sweep the number of meta-sets / curriculum stages (N = M)."""
    return _table(config, (city_name,), lambda city: (
        (int(count), _wsccl_row(city, _with_wsccl(
            config, num_meta_sets=int(count), num_stages=int(count)), variant="full"))
        for count in meta_set_counts))


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
    tasks = ("travel_time", "ranking")

    def rows(city):
        pretrained_state = fit_wsccl(city, config, variant="full").encoder_state_dict()
        train_sizes = {
            task: len(task_split(task, getattr(city.tasks, task),
                                 config.test_fraction, config.seed)[0])
            for task in tasks
        }
        series = {"scratch": {}, "pretrained": {}}
        for fraction in label_fractions:
            for mode, state in (("scratch", None), ("pretrained", pretrained_state)):
                series[mode][float(fraction)] = {
                    task: supervised_task_results(
                        build_supervised_baseline("PathRank", config, pretrained_state=state),
                        city, config, task,
                        train_limit=max(4, int(round(train_sizes[task] * fraction))))
                    for task in tasks
                }
        return series.items()

    return _table(config, (city_name,), rows)
