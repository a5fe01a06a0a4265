"""Equivalence suites for the training fast path.

Three oracles, three suites:

* fused 4-D multi-head attention vs the per-head Python loop
  (:meth:`MultiHeadSelfAttention._reference_forward`),
* matrix-form global/local WSC losses vs the per-query loop losses
  (``_reference_global_wsc_loss`` / ``_reference_local_wsc_loss``),
* float32 vs float64 loss values (documented tolerance: the contrastive
  losses are O(1) magnitudes after the 1/temperature scaling, and agree to
  ``FLOAT32_TOLERANCE`` absolute over randomized batches).

Everything randomized goes through Hypothesis so shrinking produces a
minimal counterexample if a backward rule regresses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.losses import (
    _reference_global_wsc_loss,
    _reference_local_wsc_loss,
    global_wsc_loss,
    local_wsc_loss,
)
from repro.core.sampling import ContrastSets, EdgeSampleSets
from repro.core.transformer import MultiHeadSelfAttention, attention_mask_bias

#: float64 fast-path vs loop-reference agreement (values and gradients).
FLOAT64_TOLERANCE = 1e-8

#: float32 vs float64 loss-value agreement on randomized batches.  The loss
#: is a mean of log-sum-exp terms of cosine similarities scaled by 1/0.1, so
#: its magnitude is O(10); float32's ~1e-7 relative error accumulated over a
#: batch lands comfortably inside 1e-3 absolute.
FLOAT32_TOLERANCE = 1e-3


def random_contrast_sets(size, rng):
    positives, negatives = [], []
    for i in range(size):
        others = np.array([j for j in range(size) if j != i], dtype=np.int64)
        rng.shuffle(others)
        pos_count = int(rng.integers(0, max(1, size // 2)))
        positives.append(np.sort(others[:pos_count]))
        negatives.append(np.sort(others[pos_count:]))
    return ContrastSets(positives=positives, negatives=negatives)


def random_edge_sets(size, max_len, rng):
    rows_p, cols_p, rows_n, cols_n = [], [], [], []
    for _ in range(size):
        p = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        rows_p.append(rng.integers(0, size, p))
        cols_p.append(rng.integers(0, max_len, p))
        rows_n.append(rng.integers(0, size, n))
        cols_n.append(rng.integers(0, max_len, n))
    return EdgeSampleSets(positive_rows=rows_p, positive_cols=cols_p,
                          negative_rows=rows_n, negative_cols=cols_n)


class TestFusedAttentionEquivalence:
    @given(seed=st.integers(0, 10_000),
           batch=st.integers(1, 4),
           time_steps=st.integers(1, 6),
           heads=st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_forward_matches_per_head_loop(self, seed, batch, time_steps, heads):
        rng = np.random.default_rng(seed)
        dim = heads * 3
        attention = MultiHeadSelfAttention(dim, num_heads=heads,
                                           rng=np.random.default_rng(seed + 1))
        x = rng.normal(size=(batch, time_steps, dim))
        mask = (rng.random((batch, time_steps)) > 0.3).astype(np.float64)
        mask[:, 0] = 1.0  # at least one valid key per row

        fused = attention(nn.Tensor(x), mask=mask)
        loop = attention._reference_forward(nn.Tensor(x), mask=mask)
        np.testing.assert_allclose(fused.data, loop.data, atol=FLOAT64_TOLERANCE)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_gradients_match_per_head_loop(self, seed):
        rng = np.random.default_rng(seed)
        attention = MultiHeadSelfAttention(8, num_heads=2,
                                           rng=np.random.default_rng(seed + 1))
        x = rng.normal(size=(2, 5, 8))
        mask = (rng.random((2, 5)) > 0.3).astype(np.float64)
        mask[:, 0] = 1.0

        fused_in = nn.Tensor(x, requires_grad=True)
        attention(fused_in, mask=mask).sum().backward()
        fused_grads = {name: p.grad.copy()
                       for name, p in attention.named_parameters()}
        fused_x_grad = fused_in.grad.copy()
        attention.zero_grad()

        loop_in = nn.Tensor(x, requires_grad=True)
        attention._reference_forward(loop_in, mask=mask).sum().backward()

        np.testing.assert_allclose(fused_x_grad, loop_in.grad, atol=FLOAT64_TOLERANCE)
        for name, parameter in attention.named_parameters():
            np.testing.assert_allclose(fused_grads[name], parameter.grad,
                                       atol=FLOAT64_TOLERANCE, err_msg=name)

    def test_precomputed_bias_matches_mask(self):
        rng = np.random.default_rng(0)
        attention = MultiHeadSelfAttention(6, num_heads=2,
                                           rng=np.random.default_rng(1))
        x = nn.Tensor(rng.normal(size=(2, 4, 6)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        bias = attention_mask_bias(mask, dtype=np.float64)
        np.testing.assert_allclose(
            attention(x, mask=mask).data,
            attention(x, mask_bias=bias).data)


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
        empty_sets = ContrastSets(positives=[np.array([], dtype=np.int64)] * 3,
                                  negatives=[np.array([], dtype=np.int64)] * 3)
        loss = global_wsc_loss(tprs, empty_sets)
        assert float(loss.data) == 0.0
        assert not loss.requires_grad


class TestFloat32Agreement:
    @given(seed=st.integers(0, 10_000), size=st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_global_loss_float32_close_to_float64(self, seed, size):
        rng = np.random.default_rng(seed)
        tprs_data = rng.normal(size=(size, 8))
        sets = random_contrast_sets(size, rng)

        full = global_wsc_loss(nn.Tensor(tprs_data), sets)
        half = global_wsc_loss(nn.Tensor(tprs_data.astype(np.float32)), sets)
        assert half.data.dtype == np.float32
        assert abs(float(full.data) - float(half.data)) < FLOAT32_TOLERANCE

    @given(seed=st.integers(0, 10_000), size=st.integers(3, 8),
           max_len=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_local_loss_float32_close_to_float64(self, seed, size, max_len):
        rng = np.random.default_rng(seed)
        tprs_data = rng.normal(size=(size, 6))
        edges_data = rng.normal(size=(size, max_len, 6))
        edge_sets = random_edge_sets(size, max_len, rng)

        full = local_wsc_loss(nn.Tensor(tprs_data), nn.Tensor(edges_data), edge_sets)
        half = local_wsc_loss(nn.Tensor(tprs_data.astype(np.float32)),
                              nn.Tensor(edges_data.astype(np.float32)), edge_sets)
        assert half.data.dtype == np.float32
        assert abs(float(full.data) - float(half.data)) < FLOAT32_TOLERANCE

    def test_train_step_matches_loop_oracles(self, tiny_city, tiny_config,
                                             shared_resources, monkeypatch):
        """A full transformer train_step with the loop oracles patched in
        (loss, contrast sets, per-head attention) lands on the same loss."""
        from repro.core import WSCModel, WSCTrainer, trainer
        from repro.core.losses import _reference_combined_wsc_loss
        from repro.core.sampling import _reference_build_contrast_sets

        batch = list(tiny_city.unlabeled)[:6]
        labeler = tiny_city.unlabeled.weak_labeler

        def step():
            model = WSCModel(tiny_city.network, tiny_config,
                             resources=shared_resources,
                             encoder_type="transformer")
            return WSCTrainer(model, seed=7).train_step(batch, labeler)

        fast = step()
        monkeypatch.setattr(trainer, "combined_wsc_loss", _reference_combined_wsc_loss)
        monkeypatch.setattr(trainer, "build_contrast_sets",
                            _reference_build_contrast_sets)
        monkeypatch.setattr(
            MultiHeadSelfAttention, "forward",
            lambda self, x, mask=None, mask_bias=None: self._reference_forward(x, mask))
        loops = step()
        assert np.isfinite(fast)
        assert loops == pytest.approx(fast, abs=FLOAT64_TOLERANCE)

    @pytest.mark.parametrize("encoder_type", ["lstm", "transformer"])
    def test_float32_model_stays_float32_outside_context(self, tiny_city,
                                                         tiny_config,
                                                         shared_resources,
                                                         encoder_type):
        """A model built under float32 must keep computing (and training) in
        float32 after the dtype context exits — frozen temporal/spatial
        buffers must not re-introduce float64."""
        from repro.core import WSCModel, WSCTrainer

        with nn.default_dtype("float32"):
            model = WSCModel(tiny_city.network, tiny_config,
                             resources=shared_resources,
                             encoder_type=encoder_type)
        batch = list(tiny_city.unlabeled)[:4]
        encoded = model([tp for tp, _ in batch])
        assert encoded.tprs.data.dtype == np.float32
        assert encoded.edge_representations.data.dtype == np.float32

        trainer = WSCTrainer(model)
        trainer.train_step(batch, tiny_city.unlabeled.weak_labeler)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_float32_training_step_agrees_with_float64(self, tiny_city,
                                                       tiny_config,
                                                       shared_resources):
        """One full train_step in each dtype lands on nearly the same loss."""
        from repro.core import WSCModel, WSCTrainer

        batch = list(tiny_city.unlabeled)[:6]
        labeler = tiny_city.unlabeled.weak_labeler
        losses = {}
        for dtype in ("float64", "float32"):
            with nn.default_dtype(dtype):
                model = WSCModel(tiny_city.network, tiny_config,
                                 resources=shared_resources,
                                 encoder_type="transformer")
                trainer = WSCTrainer(model, seed=7)
                losses[dtype] = trainer.train_step(batch, labeler)
        assert abs(losses["float32"] - losses["float64"]) < FLOAT32_TOLERANCE
