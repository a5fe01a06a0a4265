"""Labelled datasets for the three downstream tasks (paper §VII-A2).

* Travel-time estimation: each temporal path carries its simulated travel
  time in seconds.
* Path ranking: each trajectory path plus its alternatives carry ranking
  scores in [0, 1] — the driven path scores 1.0, alternatives score their
  length-weighted overlap with it.
* Path recommendation: the driven path is labelled 1, alternatives 0.

Every scorer takes a task's split and labels from :func:`task_split` and
:func:`task_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..roadnet.search import path_similarity
from .splits import grouped_train_test_split, train_test_split
from .temporal_paths import TemporalPath

__all__ = [
    "TravelTimeExample",
    "RankingExample",
    "RecommendationExample",
    "TaskDatasets",
    "build_task_datasets",
    "TASKS",
    "task_split",
    "task_labels",
]

#: Task name -> (label attribute, label dtype, split by trip).
_TASK_SPECS = {
    "travel_time": ("travel_time", np.float64, False),
    "ranking": ("score", np.float64, True),
    "recommendation": ("chosen", np.int64, True),
}

#: The downstream task names, which are also the fields of :class:`TaskDatasets`.
TASKS = tuple(_TASK_SPECS)


@dataclass(frozen=True)
class TravelTimeExample:
    """A temporal path with its ground-truth travel time in seconds."""

    temporal_path: TemporalPath
    travel_time: float


@dataclass(frozen=True)
class RankingExample:
    """A temporal path (candidate route) with its ranking score in [0, 1]."""

    temporal_path: TemporalPath
    score: float
    group: int  # identifies which trip the candidate belongs to


@dataclass(frozen=True)
class RecommendationExample:
    """A temporal path labelled 1 if the driver actually chose it, else 0."""

    temporal_path: TemporalPath
    chosen: int
    group: int


@dataclass
class TaskDatasets:
    """Bundle of the three labelled task datasets built from one trip corpus."""

    travel_time: list = field(default_factory=list)
    ranking: list = field(default_factory=list)
    recommendation: list = field(default_factory=list)


def build_task_datasets(network, trips, max_labeled=None):
    """Derive the three labelled datasets from simulated trips.

    Parameters
    ----------
    network:
        The road network, used to compute ranking similarities.
    trips:
        Iterable of :class:`~repro.trajectory.simulator.Trip`.
    max_labeled:
        Optional cap on how many trips contribute labels (the paper uses a
        15 000-path labelled subset out of a larger unlabeled corpus).
    """
    datasets = TaskDatasets()
    for group, trip in enumerate(trips):
        if max_labeled is not None and group >= max_labeled:
            break
        driven = TemporalPath(path=trip.path, departure_time=trip.departure_time)

        datasets.travel_time.append(
            TravelTimeExample(temporal_path=driven, travel_time=trip.travel_time)
        )

        datasets.ranking.append(RankingExample(temporal_path=driven, score=1.0, group=group))
        datasets.recommendation.append(
            RecommendationExample(temporal_path=driven, chosen=1, group=group)
        )
        for alternative in trip.alternatives:
            if not alternative:
                continue
            candidate = TemporalPath(path=alternative, departure_time=trip.departure_time)
            score = path_similarity(network, trip.path, alternative)
            datasets.ranking.append(
                RankingExample(temporal_path=candidate, score=float(score), group=group)
            )
            datasets.recommendation.append(
                RecommendationExample(temporal_path=candidate, chosen=0, group=group)
            )
    return datasets


def _task_spec(task):
    """``task``'s (label attribute, label dtype, grouped split) triple."""
    if task not in _TASK_SPECS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    return _TASK_SPECS[task]


def task_split(task, examples, test_fraction, seed):
    """The seeded (train, test) split of ``task``'s examples.

    Ranking and recommendation split by trip, so one trip's candidates never
    straddle train and test; travel time splits plainly.
    """
    _, _, grouped = _task_spec(task)
    if grouped:
        return grouped_train_test_split(examples, [e.group for e in examples],
                                        test_fraction=test_fraction, seed=seed)
    return train_test_split(examples, test_fraction=test_fraction, seed=seed)


def task_labels(task, examples):
    """``task``'s labels of ``examples``: float64, or int64 for recommendation."""
    attribute, dtype, _ = _task_spec(task)
    return np.array([getattr(e, attribute) for e in examples], dtype=dtype)
