"""Tests for the WSC trainer and the full WSCCL pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WSCCL, WSCTrainer, split_into_meta_sets, train_experts
from repro.datasets import TemporalPath, TemporalPathDataset
from repro.temporal import DepartureTime


def fit_corpus(trainer, dataset, epochs, batches_per_epoch=None):
    """Train ``epochs`` passes over a whole dataset: a one-stage schedule."""
    return trainer.fit([(list(dataset), epochs)], dataset.weak_labeler, batches_per_epoch)


@pytest.fixture()
def count_steps(monkeypatch):
    """The batch sizes of every ``WSCTrainer.train_step`` call, as they happen."""
    calls = []
    train_step = WSCTrainer.train_step

    def counting(self, batch, weak_labeler):
        calls.append(len(batch))
        return train_step(self, batch, weak_labeler)

    monkeypatch.setattr(WSCTrainer, "train_step", counting)
    return calls


class TestWSCTrainer:
    @pytest.fixture()
    def model(self, tiny_city, tiny_config, shared_resources):
        return shared_resources.new_encoder()

    def test_train_step_returns_finite_loss(self, model, tiny_city):
        trainer = WSCTrainer(model)
        batch = list(tiny_city.unlabeled)[:4]
        loss = trainer.train_step(batch, tiny_city.unlabeled.weak_labeler)
        assert np.isfinite(loss)

    def test_train_step_updates_parameters(self, model, tiny_city):
        trainer = WSCTrainer(model)
        before = {name: value.copy() for name, value in model.state_dict().items()}
        batch = list(tiny_city.unlabeled)[:4]
        trainer.train_step(batch, tiny_city.unlabeled.weak_labeler)
        after = model.state_dict()
        changed = any(not np.allclose(before[name], after[name]) for name in before)
        assert changed

    def test_one_epoch_records_history(self, model, tiny_city):
        trainer = WSCTrainer(model)
        history = fit_corpus(trainer, tiny_city.unlabeled, epochs=1, batches_per_epoch=2)
        assert history is trainer.history
        assert len(history.epoch_losses) == 1
        assert np.isfinite(history.epoch_losses[-1])

    def test_epochs_without_a_step_are_not_recorded(self, model, tiny_city):
        trainer = WSCTrainer(model)
        history = trainer.fit([(list(tiny_city.unlabeled)[:1], 2)],
                              tiny_city.unlabeled.weak_labeler)
        assert history.epoch_losses == []

    def test_fit_runs_requested_epochs(self, model, tiny_city):
        trainer = WSCTrainer(model)
        history = fit_corpus(trainer, tiny_city.unlabeled, epochs=2, batches_per_epoch=2)
        assert len(history.epoch_losses) == 2

    def test_fit_walks_the_stages_in_order(self, model, tiny_city):
        trainer = WSCTrainer(model)
        samples = list(tiny_city.unlabeled)
        history = trainer.fit([(samples[:8], 1), (samples, 2)],
                              tiny_city.unlabeled.weak_labeler, batches_per_epoch=2)
        assert len(history.epoch_losses) == 3

    def test_stage_under_two_samples_is_skipped(self, tiny_city, shared_resources,
                                                count_steps):
        # A skipped stage runs no step and draws nothing from the trainer's rng.
        samples = list(tiny_city.unlabeled)[:8]
        labeler = tiny_city.unlabeled.weak_labeler
        results = []
        for schedule in ([(samples, 1)], [(samples[:1], 3), ([], 1), (samples, 1)]):
            model = shared_resources.new_encoder()
            history = WSCTrainer(model, seed=0).fit(schedule, labeler)
            results.append((model.state_dict(), history.epoch_losses, len(count_steps)))
        (state, losses, steps), (skipped_state, skipped_losses, total_steps) = results
        assert total_steps == 2 * steps == 2
        assert skipped_losses == losses
        for name, value in state.items():
            assert value.tobytes() == skipped_state[name].tobytes(), name

    def test_fit_records_per_epoch_means(self, model, tiny_city):
        # Regression: the step losses were never reset between epochs, so the
        # history held running means over all epochs so far.
        trainer = WSCTrainer(model)
        step_losses = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        trainer.train_step = lambda batch, weak_labeler: next(step_losses)
        samples = list(tiny_city.unlabeled)[:2 * trainer.config.batch_size]
        history = trainer.fit([(samples, 3)], tiny_city.unlabeled.weak_labeler)
        assert history.epoch_losses == [1.5, 3.5, 5.5]

    def test_training_reduces_loss_on_small_corpus(self, tiny_city, tiny_config,
                                                   shared_resources):
        """A few epochs over a small fixed corpus should lower the contrastive loss."""
        model = shared_resources.new_encoder()
        trainer = WSCTrainer(model, seed=0)
        samples = list(tiny_city.unlabeled)[:12]
        losses = []
        for _ in range(6):
            epoch_losses = []
            for start in range(0, len(samples), 6):
                chunk = samples[start:start + 6]
                if len(chunk) < 2:
                    continue
                epoch_losses.append(
                    trainer.train_step(chunk, tiny_city.unlabeled.weak_labeler))
            losses.append(np.mean(epoch_losses))
        assert losses[-1] < losses[0]


class TestNewEncoder:
    def test_encode_one_path_matches_its_row(self, tiny_city, tiny_config, shared_resources):
        model = shared_resources.new_encoder()
        paths = tiny_city.unlabeled.temporal_paths[:3]
        reps = model.encode(paths)
        assert reps.shape == (3, model.output_dim)
        np.testing.assert_allclose(model.encode(paths[:1])[0], reps[0], atol=1e-9)

    def test_seed_controls_initialisation(self, tiny_city, tiny_config, shared_resources):
        a = shared_resources.new_encoder(seed=1)
        b = shared_resources.new_encoder(seed=2)
        state_a, state_b = a.state_dict(), b.state_dict()
        assert any(not np.allclose(state_a[k], state_b[k]) for k in state_a)


class TestWSCCL:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_city, tiny_config, shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit(tiny_city.unlabeled, batches_per_epoch=2, expert_batches=1)
        return model

    def test_fit_builds_experts_and_plan(self, fitted, tiny_config):
        assert len(fitted.experts) == tiny_config.num_meta_sets
        assert fitted.plan is not None
        assert len(fitted.plan.stages) == tiny_config.num_stages

    def test_encode_after_fit(self, fitted, tiny_city):
        reps = fitted.encode(tiny_city.unlabeled.temporal_paths[:4])
        assert reps.shape == (4, fitted.model.output_dim)
        assert np.isfinite(reps).all()

    def test_encoder_state_dict_is_loadable(self, fitted, tiny_city, tiny_config,
                                            shared_resources):
        state = fitted.encoder_state_dict()
        fresh = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        fresh.model.load_state_dict(state)
        paths = tiny_city.unlabeled.temporal_paths[:2]
        np.testing.assert_allclose(fresh.encode(paths), fitted.encode(paths), atol=1e-9)

    def test_fit_without_curriculum(self, tiny_city, tiny_config, shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=2)
        assert model.plan.stages == []
        assert model.plan.final_stage == list(tiny_city.unlabeled)
        assert len(model.history.epoch_losses) == tiny_config.epochs

    def test_no_cl_corpus_of_one_sample_runs_no_step(self, tiny_city, tiny_config,
                                                     shared_resources, count_steps):
        one = TemporalPathDataset(tiny_city.unlabeled.temporal_paths[:1],
                                  tiny_city.unlabeled.weak_labeler)
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit_without_curriculum(one)
        assert count_steps == []
        assert model.history.epoch_losses == []

    # 40 samples at batch size 8: the experts run 3 + 3 steps (two meta-sets
    # of 20), the two stages 3 + 3 and the final stage 5, so the learned
    # curriculum runs 6 + 11 and "w/o CL" 5.
    @pytest.mark.parametrize("schedule,steps", [
        ("full", 17), ("heuristic", 11), ("no_cl", 5), ("experts", 6)])
    def test_schedules_run_the_same_steps(self, tiny_city, tiny_config, shared_resources,
                                          count_steps, schedule, steps):
        dataset = tiny_city.unlabeled
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        if schedule == "full":
            model.fit(dataset)
        elif schedule == "heuristic":
            model.fit_with_heuristic_curriculum(dataset)
        elif schedule == "no_cl":
            model.fit_without_curriculum(dataset)
        else:
            meta_sets, _ = split_into_meta_sets(list(dataset), tiny_config.num_meta_sets)
            train_experts(shared_resources, meta_sets, tiny_config,
                          weak_labeler=dataset.weak_labeler)
        assert len(count_steps) == steps

    def test_fit_with_heuristic_curriculum(self, tiny_city, tiny_config, shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit_with_heuristic_curriculum(tiny_city.unlabeled, batches_per_epoch=2)
        assert model.plan is not None
        assert not model.experts

    def test_no_temporal_variant_ignores_departure_time(self, tiny_city, tiny_config,
                                                        shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources,
                      use_temporal=False)
        base = tiny_city.unlabeled.temporal_paths[0]
        peak = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0))
        night = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0))
        reps = model.encode([peak, night])
        np.testing.assert_allclose(reps[0], reps[1])

    def test_representations_cluster_by_weak_label(self, fitted, tiny_city):
        """After training, same-path peak/off-peak pairs should be farther
        apart than same-path same-label pairs (on average)."""
        base = tiny_city.unlabeled.temporal_paths[0]
        same_label = [
            TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0)),
            TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(2, 8.3)),
        ]
        cross_label = [
            TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0)),
            TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0)),
        ]

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        same = cosine(*fitted.encode(same_label))
        cross = cosine(*fitted.encode(cross_label))
        # Not a strict ordering guarantee at this scale, but they must at
        # least be distinguishable representations.
        assert not np.isclose(same, cross, atol=1e-6) or same >= cross
