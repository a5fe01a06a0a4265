"""Equivalence suite for the training fast path.

The matrix-form global/local WSC losses of ``reference_wsc_graph`` (the
objective node's bit-exact oracle) are checked against the per-query loop
losses of ``reference_losses`` (``_reference_global_wsc_loss`` /
``_reference_local_wsc_loss``).  A full ``train_step`` through the objective
node is checked against the same step with the loop losses and
``reference_sampling``'s loop oracle for the grouped contrast sets patched in.

Everything randomized goes through Hypothesis so shrinking produces a
minimal counterexample if a backward rule regresses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.sampling import EdgeSampleSets
from reference_losses import (
    _reference_combined_wsc_loss,
    _reference_global_wsc_loss,
    _reference_local_wsc_loss,
)
from reference_sampling import _reference_build_contrast_sets, contrast_sets_from_lists
from reference_wsc_graph import global_wsc_loss, local_wsc_loss

#: Fast-path vs loop-reference agreement (values and gradients).
FLOAT64_TOLERANCE = 1e-8


def random_contrast_sets(size, rng):
    positives, negatives = [], []
    for i in range(size):
        others = np.array([j for j in range(size) if j != i], dtype=np.int64)
        rng.shuffle(others)
        pos_count = int(rng.integers(0, max(1, size // 2)))
        positives.append(np.sort(others[:pos_count]))
        negatives.append(np.sort(others[pos_count:]))
    return contrast_sets_from_lists(positives, negatives)


def random_edge_sets(size, max_len, rng):
    """Flat edge samples, 0-4 per query and side, grouped by query."""
    arrays = []
    for _ in range(2):
        query = np.repeat(np.arange(size), rng.integers(0, 5, size))
        arrays += [rng.integers(0, size, len(query)), rng.integers(0, max_len, len(query)),
                   query]
    return EdgeSampleSets(*arrays)


class TestMatrixLossEquivalence:
    @given(seed=st.integers(0, 10_000), size=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_global_loss_matches_loop(self, seed, size):
        rng = np.random.default_rng(seed)
        tprs_data = rng.normal(size=(size, 8))
        sets = random_contrast_sets(size, rng)

        fast_tprs = nn.Tensor(tprs_data, requires_grad=True)
        fast = global_wsc_loss(fast_tprs, sets)
        loop_tprs = nn.Tensor(tprs_data, requires_grad=True)
        loop = _reference_global_wsc_loss(loop_tprs, sets)

        assert abs(float(fast.data) - float(loop.data)) < FLOAT64_TOLERANCE
        assert fast.requires_grad == loop.requires_grad
        if fast.requires_grad:
            fast.backward()
            loop.backward()
            np.testing.assert_allclose(fast_tprs.grad, loop_tprs.grad,
                                       atol=FLOAT64_TOLERANCE)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 10),
           max_len=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_local_loss_matches_loop(self, seed, size, max_len):
        rng = np.random.default_rng(seed)
        tprs_data = rng.normal(size=(size, 6))
        edges_data = rng.normal(size=(size, max_len, 6))
        edge_sets = random_edge_sets(size, max_len, rng)

        fast_tprs = nn.Tensor(tprs_data, requires_grad=True)
        fast_edges = nn.Tensor(edges_data, requires_grad=True)
        fast = local_wsc_loss(fast_tprs, fast_edges, edge_sets)
        loop_tprs = nn.Tensor(tprs_data, requires_grad=True)
        loop_edges = nn.Tensor(edges_data, requires_grad=True)
        loop = _reference_local_wsc_loss(loop_tprs, loop_edges, edge_sets)

        assert abs(float(fast.data) - float(loop.data)) < FLOAT64_TOLERANCE
        assert fast.requires_grad == loop.requires_grad
        if fast.requires_grad:
            fast.backward()
            loop.backward()
            np.testing.assert_allclose(fast_tprs.grad, loop_tprs.grad,
                                       atol=FLOAT64_TOLERANCE)
            np.testing.assert_allclose(fast_edges.grad, loop_edges.grad,
                                       atol=FLOAT64_TOLERANCE)

    def test_degenerate_batches_return_zero(self):
        tprs = nn.Tensor(np.ones((3, 4)), requires_grad=True)
        empty_sets = contrast_sets_from_lists([[]] * 3, [[]] * 3)
        loss = global_wsc_loss(tprs, empty_sets)
        assert float(loss.data) == 0.0
        assert not loss.requires_grad

    def test_train_step_matches_loop_oracles(self, tiny_city, tiny_config,
                                             shared_resources, monkeypatch):
        """Two train steps through the objective node, and the same steps with
        the loop oracles patched in (loss and contrast sets), give the same
        losses, gradients and weights."""
        from repro.core import WSCTrainer, trainer

        batch = list(tiny_city.unlabeled)[:6]
        labeler = tiny_city.unlabeled.weak_labeler

        def steps():
            model = shared_resources.new_encoder()
            step = WSCTrainer(model, seed=7).train_step
            losses = [step(batch, labeler), step(batch, labeler)]
            # Adam's update hides a gradient's scale, so compare the gradients too.
            grads = {name: p.grad for name, p in model.named_parameters()}
            return losses, grads, model.state_dict()

        fast = steps()
        monkeypatch.setattr(trainer, "combined_wsc_loss", _reference_combined_wsc_loss)
        monkeypatch.setattr(trainer, "build_contrast_sets",
                            _reference_build_contrast_sets)
        loops = steps()
        assert np.all(np.isfinite(fast[0]))
        assert loops[0] == pytest.approx(fast[0], abs=FLOAT64_TOLERANCE)
        for fast_arrays, loop_arrays in zip(fast[1:], loops[1:]):
            assert fast_arrays.keys() == loop_arrays.keys()
            for name, value in fast_arrays.items():
                np.testing.assert_allclose(value, loop_arrays[name],
                                           atol=FLOAT64_TOLERANCE, err_msg=name)
