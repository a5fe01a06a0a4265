"""Tests for curriculum learning: meta-sets, experts, difficulty, stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    TemporalPathEncoder,
    build_curriculum_stages,
    difficulty_scores,
    heuristic_curriculum_stages,
    split_into_meta_sets,
    train_experts,
)


@pytest.fixture(scope="module")
def samples(tiny_city):
    return list(tiny_city.unlabeled)


class TestMetaSetSplit:
    def test_partition_is_complete_and_disjoint(self, samples):
        meta_sets, assignments = split_into_meta_sets(samples, num_meta_sets=3)
        assert sum(len(m) for m in meta_sets) == len(samples)
        assert len(assignments) == len(samples)
        assert set(assignments.tolist()) <= {0, 1, 2}

    def test_sorted_by_length_across_sets(self, samples):
        meta_sets, _ = split_into_meta_sets(samples, num_meta_sets=3)
        max_lengths = [max(len(tp) for tp, _ in m) for m in meta_sets if m]
        min_lengths = [min(len(tp) for tp, _ in m) for m in meta_sets if m]
        # Every path in meta-set i is no longer than every path in meta-set i+1.
        for i in range(len(max_lengths) - 1):
            assert max_lengths[i] <= min_lengths[i + 1]

    def test_assignments_match_membership(self, samples):
        meta_sets, assignments = split_into_meta_sets(samples, num_meta_sets=2)
        for index, sample in enumerate(samples):
            assert sample in meta_sets[assignments[index]]

    def test_invalid_count(self, samples):
        with pytest.raises(ValueError):
            split_into_meta_sets(samples, num_meta_sets=0)

    @pytest.mark.parametrize("count", [True, 1.5])
    def test_count_must_be_an_integer(self, samples, count):
        # True used to give one meta-set; 1.5 failed deep in numpy.
        with pytest.raises(ValueError,
                           match=rf"^num_meta_sets must be an integer >= 1, got {count!r}$"):
            split_into_meta_sets(samples, count)

    def test_more_sets_than_samples(self):
        from repro.datasets import TemporalPath
        from repro.temporal import DepartureTime

        few = [(TemporalPath(path=[1, 2], departure_time=DepartureTime.from_hour(0, 8.0)), 0)]
        meta_sets, assignments = split_into_meta_sets(few, num_meta_sets=4)
        assert sum(len(m) for m in meta_sets) == 1


class TestExpertsAndDifficulty:
    @pytest.fixture(scope="class")
    def experts_setup(self, tiny_city, tiny_config, shared_resources, samples):
        meta_sets, assignments = split_into_meta_sets(samples, tiny_config.num_meta_sets)
        experts = train_experts(
            shared_resources, meta_sets, tiny_config,
            weak_labeler=tiny_city.unlabeled.weak_labeler,
            batches_per_epoch=1,
        )
        return meta_sets, assignments, experts

    def test_one_expert_per_meta_set(self, experts_setup, tiny_config):
        meta_sets, _, experts = experts_setup
        assert len(experts) == tiny_config.num_meta_sets
        assert all(isinstance(e, TemporalPathEncoder) for e in experts)

    def test_experts_have_different_parameters(self, experts_setup):
        _, _, experts = experts_setup
        first = experts[0].state_dict()
        second = experts[1].state_dict()
        different = any(
            not np.allclose(first[name], second[name]) for name in first
        )
        assert different

    def test_difficulty_scores_shape_and_finiteness(self, experts_setup, samples):
        _, assignments, experts = experts_setup
        scores = difficulty_scores(samples, assignments, experts)
        assert scores.shape == (len(samples),)
        assert np.isfinite(scores).all()

    def test_scores_bounded_by_expert_count(self, experts_setup, samples):
        """Each score sums N-1 cosine similarities, so |score| <= N-1."""
        _, assignments, experts = experts_setup
        scores = difficulty_scores(samples, assignments, experts)
        assert (np.abs(scores) <= len(experts) - 1 + 1e-9).all()

    def test_single_expert_gives_zero_scores(self, experts_setup, samples):
        _, assignments, experts = experts_setup
        scores = difficulty_scores(samples, np.zeros(len(samples), dtype=int), experts[:1])
        assert (scores == 0).all()


class TestCurriculumStages:
    def test_stage_partition(self, samples):
        scores = np.arange(len(samples), dtype=float)
        plan = build_curriculum_stages(samples, scores, num_stages=3)
        assert len(plan.stages) == 3
        assert sum(len(stage) for stage in plan.stages) == len(samples)
        assert len(plan.final_stage) == len(samples)

    def test_easy_samples_come_first(self, samples):
        scores = np.linspace(0, 1, len(samples))
        plan = build_curriculum_stages(samples, scores, num_stages=2)
        score_of = {id(sample): score for sample, score in zip(samples, scores)}
        first_stage_scores = [score_of[id(s)] for s in plan.stages[0]]
        last_stage_scores = [score_of[id(s)] for s in plan.stages[-1]]
        assert min(first_stage_scores) >= max(last_stage_scores)

    def test_invalid_stage_count(self, samples):
        with pytest.raises(ValueError):
            build_curriculum_stages(samples, np.zeros(len(samples)), num_stages=0)

    @pytest.mark.parametrize("count", [True, 1.5])
    def test_stage_count_must_be_an_integer(self, samples, count):
        # True used to give one stage; 1.5 failed deep in numpy.
        with pytest.raises(ValueError,
                           match=rf"^num_stages must be an integer >= 1, got {count!r}$"):
            build_curriculum_stages(samples, np.zeros(len(samples)), num_stages=count)

    def test_heuristic_orders_by_length(self, samples):
        plan = heuristic_curriculum_stages(samples, num_stages=2)
        first_lengths = [len(tp) for tp, _ in plan.stages[0]]
        last_lengths = [len(tp) for tp, _ in plan.stages[-1]]
        assert max(first_lengths) <= min(last_lengths) + 1

    def test_more_stages_than_samples_emits_no_empty_stages(self, samples):
        # Regression: num_stages > len(samples) used to produce empty stages
        # that reached the training loop as no-op epochs.
        few = samples[:3]
        plan = build_curriculum_stages(few, np.arange(3, dtype=float), num_stages=10)
        assert len(plan.stages) == 3
        assert all(len(stage) >= 1 for stage in plan.stages)
        assert sum(len(stage) for stage in plan.stages) == 3
        assert len(plan.final_stage) == 3

    def test_empty_samples_give_empty_plan(self):
        plan = build_curriculum_stages([], np.array([]), num_stages=4)
        assert plan.stages == []
        assert plan.final_stage == []

    def test_scores_length_mismatch_rejected(self, samples):
        with pytest.raises(ValueError):
            build_curriculum_stages(samples[:4], np.zeros(3), num_stages=2)

    def test_heuristic_more_stages_than_samples(self, samples):
        plan = heuristic_curriculum_stages(samples[:2], num_stages=5)
        assert len(plan.stages) == 2
        assert all(len(stage) == 1 for stage in plan.stages)


class TestTrainExpertsValidation:
    def test_none_labeler_with_samples_rejected(self, tiny_city, tiny_config,
                                                shared_resources, samples):
        # Regression: a None weak_labeler used to silently return untrained
        # experts, making the downstream difficulty scores pure noise.
        meta_sets, _ = split_into_meta_sets(samples, tiny_config.num_meta_sets)
        with pytest.raises(ValueError):
            train_experts(shared_resources, meta_sets, tiny_config, weak_labeler=None)

    def test_none_labeler_with_all_empty_meta_sets_allowed(self, tiny_city,
                                                           tiny_config,
                                                           shared_resources):
        experts = train_experts(shared_resources, [[], []], tiny_config, weak_labeler=None)
        assert len(experts) == 2
