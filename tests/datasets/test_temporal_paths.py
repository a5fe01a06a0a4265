"""Tests for TemporalPath and TemporalPathDataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import TemporalPath, TemporalPathDataset, minibatch_indices
from repro.temporal import DepartureTime, PeakOffPeakLabeler


def make_paths(count=10, length=4):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(count):
        edges = rng.integers(0, 20, size=length + (i % 3)).tolist()
        departure = DepartureTime.from_hour(int(rng.integers(0, 7)),
                                            float(rng.uniform(0, 23.9)))
        paths.append(TemporalPath(path=edges, departure_time=departure))
    return paths


class TestTemporalPath:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            TemporalPath(path=[], departure_time=DepartureTime.from_hour(0, 8.0))

    def test_negative_edge_id_rejected(self):
        with pytest.raises(ValueError, match="-3"):
            TemporalPath(path=[4, -3, 5], departure_time=DepartureTime.from_hour(0, 8.0))

    def test_length_and_tuple_conversion(self):
        tp = TemporalPath(path=[3, 4, 5], departure_time=DepartureTime.from_hour(0, 8.0))
        assert len(tp) == 3
        assert tp.num_edges == 3
        assert tp.path == (3, 4, 5)

    @pytest.mark.parametrize("path, bad", [
        ((1.7, 2), "1.7"), ((True, 2), "True"), ((2, False), "False"), (("3",), "'3'"),
        ((1, 2.0), "2.0"), (np.array([1.0, 2.0]), r"np.float64\(1.0\)"),
        (np.array([True, False]), "np.True_")])
    def test_non_integer_edge_ids_rejected(self, path, bad):
        # int() used to alias them: (1.7, 2) became (1, 2) and ("3",) (3,).
        with pytest.raises(ValueError, match=rf"^edge id must be an integer >= 0, got {bad}$"):
            TemporalPath(path=path, departure_time=DepartureTime.from_hour(0, 8.0))

    @pytest.mark.parametrize("path", [np.array([3, 4, 5]), (np.int32(3), np.uint8(4), 5),
                                      (e for e in (3, 4, 5))])
    def test_numpy_integer_edge_ids_become_ints(self, path):
        tp = TemporalPath(path=path, departure_time=DepartureTime.from_hour(0, 8.0))
        assert tp.path == (3, 4, 5)
        assert all(type(edge) is int for edge in tp.path)

    def test_hashable_and_frozen(self):
        tp = TemporalPath(path=[1, 2], departure_time=DepartureTime.from_hour(0, 8.0))
        assert tp == TemporalPath(path=[1, 2], departure_time=tp.departure_time)


class TestTemporalPathDataset:
    @pytest.fixture()
    def dataset(self):
        return TemporalPathDataset(make_paths(12), PeakOffPeakLabeler())

    def test_len_getitem_iter(self, dataset):
        assert len(dataset) == 12
        tp, label = dataset[0]
        assert isinstance(label, int)
        assert len(list(dataset)) == 12

    def test_weak_labels_match_labeler(self, dataset):
        labeler = PeakOffPeakLabeler()
        for tp, label in dataset:
            assert label == labeler(tp.departure_time)

    def test_relabel(self, dataset):
        class ConstantLabeler(PeakOffPeakLabeler):
            def label(self, departure_time):
                return 0

        relabeled = dataset.relabel(ConstantLabeler())
        assert set(relabeled.weak_labels.tolist()) == {0}
        assert len(relabeled) == len(dataset)

    def test_label_distribution_sums_to_size(self, dataset):
        distribution = dataset.label_distribution()
        assert sum(distribution.values()) == len(dataset)

    def test_minibatches_cover_dataset(self, dataset):
        seen = []
        for indices in minibatch_indices(len(dataset), 4, np.random.default_rng(0)):
            batch = [dataset[i] for i in indices]
            assert 2 <= len(batch) <= 4
            seen.extend(indices.tolist())
        assert sorted(seen) == list(range(len(dataset)))

    def test_minibatch_requires_size_two(self, dataset):
        with pytest.raises(ValueError):
            list(minibatch_indices(len(dataset), 1, np.random.default_rng(0)))

    def test_minibatches_are_deterministic_given_seed(self, dataset):
        def order(seed):
            return [dataset[i][0].path for indices in
                    minibatch_indices(len(dataset), 4, np.random.default_rng(seed))
                    for i in indices]

        assert order(3) == order(3)
        assert order(3) != order(4)
