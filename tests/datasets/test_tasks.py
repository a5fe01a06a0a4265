"""Tests for the labelled task dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import TASKS, build_task_datasets, task_labels, task_split, train_test_split


class TestBuildTaskDatasets:
    @pytest.fixture(scope="class")
    def tasks(self, tiny_city):
        return tiny_city.tasks

    def test_travel_time_examples_positive(self, tasks):
        assert tasks.travel_time
        for example in tasks.travel_time:
            assert example.travel_time > 0
            assert len(example.temporal_path) >= 1

    def test_ranking_scores_in_unit_interval(self, tasks):
        for example in tasks.ranking:
            assert 0.0 <= example.score <= 1.0

    def test_each_group_has_a_top_ranked_path(self, tasks):
        groups = {}
        for example in tasks.ranking:
            groups.setdefault(example.group, []).append(example.score)
        for scores in groups.values():
            assert max(scores) == pytest.approx(1.0)

    def test_recommendation_labels_binary_with_one_positive_per_group(self, tasks):
        groups = {}
        for example in tasks.recommendation:
            assert example.chosen in (0, 1)
            groups.setdefault(example.group, []).append(example.chosen)
        for labels in groups.values():
            assert sum(labels) == 1

    def test_max_labeled_caps_groups(self, tiny_city):
        capped = build_task_datasets(tiny_city.network, tiny_city.trips, max_labeled=5)
        assert len(capped.travel_time) == 5
        assert max(e.group for e in capped.ranking) <= 4


class TestTaskSplitAndLabels:
    @pytest.fixture(scope="class")
    def tasks(self, tiny_city):
        return tiny_city.tasks

    @pytest.mark.parametrize("task, dtype", [("travel_time", np.float64),
                                             ("ranking", np.float64),
                                             ("recommendation", np.int64)])
    def test_labels_dtype_and_values(self, tasks, task, dtype):
        examples = getattr(tasks, task)
        labels = task_labels(task, examples)
        assert labels.dtype == dtype
        assert labels.shape == (len(examples),)
        attribute = {"travel_time": "travel_time", "ranking": "score",
                     "recommendation": "chosen"}[task]
        assert labels.tolist() == [getattr(e, attribute) for e in examples]

    @pytest.mark.parametrize("task", ["ranking", "recommendation"])
    def test_candidate_tasks_split_by_trip(self, tasks, task):
        train, test = task_split(task, getattr(tasks, task), 0.25, 3)
        assert train and test
        assert not {e.group for e in train} & {e.group for e in test}
        assert len(train) + len(test) == len(getattr(tasks, task))

    def test_travel_time_splits_plainly(self, tasks):
        assert task_split("travel_time", tasks.travel_time, 0.2, 4) == \
            train_test_split(tasks.travel_time, test_fraction=0.2, seed=4)

    def test_tasks_are_the_dataset_fields(self, tasks):
        assert TASKS == ("travel_time", "ranking", "recommendation")
        assert all(isinstance(getattr(tasks, task), list) for task in TASKS)

    def test_unknown_task_rejected(self, tasks):
        with pytest.raises(ValueError, match="unknown task"):
            task_labels("score", tasks.ranking)
        with pytest.raises(ValueError, match="unknown task"):
            task_split("travel_tme", tasks.travel_time, 0.2, 0)
