"""Common interfaces for the baseline methods (paper §VII-A3).

Two kinds of baselines exist:

* **Unsupervised representation models** — learn path representations from
  the unlabeled corpus; a GBR/GBC is then fitted on the frozen
  representations per task (same harness as WSCCL).
* **Supervised models** — train end-to-end on the labels of one task.  They
  also expose their internal path representation, which the cross-task
  experiment (Table X) reuses on the secondary task.

Every model implements ``encode(temporal_paths) -> (N, D) array`` so the
downstream evaluators treat WSCCL and all baselines uniformly.
"""

from __future__ import annotations

import numpy as np

from ..core.config import WSCCLConfig
from ..core.model import slot_embeddings
from ..core.temporal_embedding import TemporalEmbedding

__all__ = ["RepresentationModel", "SupervisedModel"]

#: Minibatch size and Adam learning rate of every sequence baseline.
_BATCH_SIZE = 16
_LR = 1e-3
#: Size and granularity of the departure-time slot embedding that
#: PIM-Temporal and STGCN add to a non-temporal model.
_TEMPORAL_DIM = 8
_SLOTS_PER_DAY = 48


class RepresentationModel:
    """Interface for unsupervised path-representation baselines."""

    def fit(self, city, **kwargs):
        """Learn representations from a :class:`~repro.datasets.synthetic.CityDataset`.

        Implementations use only the road network and the unlabeled temporal
        paths — never the task labels.
        """
        raise NotImplementedError

    def encode(self, temporal_paths):
        """Return an ``(N, D)`` representation matrix for the given paths."""
        raise NotImplementedError


class SupervisedModel(RepresentationModel):
    """Interface for supervised baselines (trained on one task's labels)."""

    def fit_supervised(self, examples, task, **kwargs):
        """Train on labelled examples of ``task`` ('travel_time' or 'ranking')."""
        raise NotImplementedError

    def predict(self, temporal_paths):
        """Direct predictions of the trained task for the given paths."""
        raise NotImplementedError


def _check_supervised_fit(examples, task, tasks, built, city):
    """What every ``fit_supervised`` checks before it builds anything: ``task``
    is one of ``tasks``, the ``examples`` fill one minibatch (2 or more), and
    ``city`` is given unless the model is already ``built``."""
    if task not in tasks:
        raise ValueError(f"unsupported task {task!r}; expected one of {tasks}")
    if len(examples) < 2:
        raise ValueError(f"need at least 2 examples for one minibatch, got {len(examples)}")
    if not built and city is None:
        raise ValueError("pass city= the first time fit_supervised is called")


def mean_pool_edge_vectors(edge_vectors, paths):
    """Average per-edge vectors over each path (shared by several baselines)."""
    edge_vectors = np.asarray(edge_vectors, dtype=np.float64)
    output = np.zeros((len(paths), edge_vectors.shape[1]))
    for row, path in enumerate(paths):
        indices = np.asarray(list(path.path), dtype=np.int64)
        output[row] = edge_vectors[indices].mean(axis=0)
    return output


def departure_slot_embedding():
    """The frozen departure-time slot embedding of PIM-Temporal and STGCN."""
    config = WSCCLConfig.test_scale().with_overrides(
        temporal_dim=_TEMPORAL_DIM, slots_per_day=_SLOTS_PER_DAY)
    return TemporalEmbedding(config, slot_embeddings(config))
