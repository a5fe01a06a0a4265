"""The WSC objective node against its Tensor-graph oracle, bit for bit.

:func:`repro.core.combined_wsc_loss` is one autograd node with a hand-written
backward; ``reference_wsc_graph.combined_wsc_loss`` composes the same
objective from Tensor operations.  The loss bytes and the bytes of the
gradient of ``steps`` must be equal, which is what keeps fitted weights and
the golden tables byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_wsc_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import WSCTrainer, combined_wsc_loss, trainer
from repro.core.sampling import EdgeSampleSets
from reference_sampling import contrast_sets_from_lists

LAMBDAS = (0.0, 0.3, 0.8, 1.0)


def _run(loss_fn, steps, mask, contrast_sets, edge_sets, lambda_balance, temperature):
    inputs = nn.Tensor(steps.copy(), requires_grad=True)
    loss = loss_fn(inputs, mask, contrast_sets, edge_sets,
                   lambda_balance=lambda_balance, temperature=temperature)
    if loss.requires_grad:
        loss.backward()
    grad = None if inputs.grad is None else inputs.grad.tobytes()
    return loss.data.tobytes(), loss.requires_grad, grad


def assert_node_matches_oracle(*case):
    node = _run(combined_wsc_loss, *case)
    oracle = _run(reference_wsc_graph.combined_wsc_loss, *case)
    assert node[:2] == oracle[:2]
    assert node[2] == oracle[2]


@st.composite
def objective_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    batch = draw(st.integers(2, 10))
    time_steps = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 12))
    lengths = rng.integers(1, time_steps + 1, size=batch)
    if draw(st.booleans()):
        lengths[:] = 1                               # single-step paths
    mask = (np.arange(time_steps)[None, :] < lengths[:, None]).astype(np.float64)
    steps = rng.normal(size=(batch, time_steps, dim)) * draw(st.sampled_from([0.1, 1.0, 5.0]))

    # Any split of the others into positives and negatives, either side empty.
    positives, negatives = [], []
    for i in range(batch):
        others = rng.permutation([j for j in range(batch) if j != i])
        cut = int(rng.integers(0, batch))
        positives.append(np.sort(others[:cut]))
        negatives.append(np.sort(others[cut:]))
    # 0-3 samples per query and side, anywhere on the grid, padding included.
    arrays = []
    for _ in range(2):
        query = np.repeat(np.arange(batch), rng.integers(0, 4, size=batch))
        arrays += [rng.integers(0, batch, len(query)), rng.integers(0, time_steps, len(query)),
                   query]
    return (steps, mask, contrast_sets_from_lists(positives, negatives), EdgeSampleSets(*arrays),
            draw(st.sampled_from(LAMBDAS)), draw(st.sampled_from([0.07, 0.1, 1.0])))


class TestNodeMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=objective_cases())
    def test_loss_and_steps_grad_bytes(self, case):
        assert_node_matches_oracle(*case)

    @pytest.mark.parametrize("lambda_balance", LAMBDAS)
    @pytest.mark.parametrize("empty", ["global", "local", "both", "neither"])
    def test_degenerate_sides(self, rng, lambda_balance, empty):
        batch, time_steps = 4, 3
        steps = rng.normal(size=(batch, time_steps, 5))
        mask = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=np.float64)
        if empty in ("global", "both"):   # every query lacks a positive
            positives = [np.array([], dtype=np.int64)] * batch
            negatives = [np.array([j for j in range(batch) if j != i]) for i in range(batch)]
        else:
            positives = [np.array([1]), np.array([0]), np.array([3]), np.array([2])]
            negatives = [np.array([2, 3]), np.array([2, 3]), np.array([0, 1]), np.array([0, 1])]
        query = np.array([0, 0, 1, 2, 3, 3])
        negative_query = query if empty not in ("local", "both") else query[:0]
        edge_sets = EdgeSampleSets(
            np.array([0, 1, 1, 2, 3, 2]), np.array([0, 0, 1, 2, 1, 0]), query,
            np.array([2, 3, 0, 1, 0, 1])[:len(negative_query)],
            np.array([1, 2, 0, 0, 0, 1])[:len(negative_query)], negative_query)
        assert_node_matches_oracle(steps, mask, contrast_sets_from_lists(positives, negatives),
                                   edge_sets, lambda_balance, 0.1)


def test_train_step_graph_above_the_lstm_is_one_node(tiny_city, shared_resources,
                                                     monkeypatch):
    losses = []
    loss_fn = trainer.combined_wsc_loss

    def recording_loss(*args, **kwargs):
        losses.append(loss_fn(*args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(trainer, "combined_wsc_loss", recording_loss)
    model = shared_resources.new_encoder()
    WSCTrainer(model, seed=7).train_step(list(tiny_city.unlabeled)[:6],
                                         tiny_city.unlabeled.weak_labeler)
    loss = losses[-1]
    assert loss._op == "wsc_loss"
    assert len(loss._parents) == 1
    assert loss._parents[0]._op == "lstm"


@pytest.mark.parametrize("lambda_balance", [0.0, 0.8, 1.0])
def test_fit_lands_on_the_oracles_bytes(tiny_city, tiny_config, shared_resources,
                                        monkeypatch, lambda_balance):
    """A short fit through the node and through the oracle gives byte-identical
    weights and loss history."""
    config = tiny_config.with_overrides(lambda_balance=lambda_balance)
    results = []
    for loss_fn in (trainer.combined_wsc_loss, reference_wsc_graph.combined_wsc_loss):
        monkeypatch.setattr(trainer, "combined_wsc_loss", loss_fn)
        model = shared_resources.new_encoder()
        history = WSCTrainer(model, config=config, seed=3).fit(
            [(list(tiny_city.unlabeled), 2)], tiny_city.unlabeled.weak_labeler,
            batches_per_epoch=2)
        results.append((model.state_dict(), history.epoch_losses))
    (node_state, node_history), (oracle_state, oracle_history) = results
    assert len(node_history) == 2
    assert np.asarray(node_history).tobytes() == np.asarray(oracle_history).tobytes()
    assert node_state.keys() == oracle_state.keys()
    for name, value in node_state.items():
        assert value.tobytes() == oracle_state[name].tobytes(), name
