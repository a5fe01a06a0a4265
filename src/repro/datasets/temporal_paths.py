"""Temporal path containers (paper Definition 4) and dataset objects."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .._checks import check_integers

__all__ = ["TemporalPath", "TemporalPathDataset"]


@dataclass(frozen=True)
class TemporalPath:
    """A temporal path ``tp = (p, t)``: an edge sequence plus a departure time."""

    path: tuple
    departure_time: object

    def __post_init__(self):
        path = check_integers("edge id", self.path, low=0)
        if not path:
            raise ValueError("temporal path must contain at least one edge")
        object.__setattr__(self, "path", tuple(map(index, path)))

    def __len__(self):
        return len(self.path)

    @property
    def num_edges(self):
        return len(self.path)


class TemporalPathDataset:
    """A collection of temporal paths with weak labels.

    This is the unlabeled (in the strong sense) corpus WSCCL trains on: every
    temporal path carries only a weak label derived from its departure time.
    """

    def __init__(self, temporal_paths, weak_labeler):
        self.temporal_paths = list(temporal_paths)
        self.weak_labeler = weak_labeler
        self.weak_labels = np.array(
            [weak_labeler.label(tp.departure_time) for tp in self.temporal_paths],
            dtype=np.int64,
        )

    def __len__(self):
        return len(self.temporal_paths)

    def __getitem__(self, index):
        return self.temporal_paths[index], int(self.weak_labels[index])

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    # ------------------------------------------------------------------
    def relabel(self, weak_labeler):
        """Return a new dataset with the same paths but a different weak labeler."""
        return TemporalPathDataset(self.temporal_paths, weak_labeler)

    def label_distribution(self):
        """Mapping weak label -> count, useful for sanity checks and reports."""
        values, counts = np.unique(self.weak_labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}
