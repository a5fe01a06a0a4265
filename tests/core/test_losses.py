"""Tests for the WSC objective node (global and local weakly-supervised losses).

Most cases give the node one-step ``steps`` with an all-ones mask, whose
masked mean is exactly the TPRs, so a case can be written in TPRs.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_wsc_graph import global_wsc_loss, local_wsc_loss

from repro import nn
from repro.core import combined_wsc_loss
from repro.core.sampling import EdgeSampleSets
from reference_sampling import contrast_sets_from_lists as make_contrast_sets


def make_edge_sets(positive, negative):
    """Flat edge samples from per-query ``(rows, cols)`` lists of each side."""
    arrays = []
    for side in (positive, negative):
        for k in (0, 1):
            arrays.append(np.concatenate([np.asarray(p[k], dtype=np.int64) for p in side]))
        arrays.append(np.concatenate([np.full(len(rows), i, dtype=np.int64)
                                      for i, (rows, _) in enumerate(side)]))
    return EdgeSampleSets(*arrays)


def no_edges(batch):
    return make_edge_sets([([], [])] * batch, [([], [])] * batch)


def one_step(tprs, requires_grad=True):
    """``(steps, mask)`` whose masked mean is ``tprs`` exactly."""
    tprs = np.asarray(tprs, dtype=np.float64)
    return nn.Tensor(tprs[:, None, :], requires_grad=requires_grad), np.ones((len(tprs), 1))


def global_loss(tprs, sets, temperature=0.1):
    steps, mask = one_step(tprs)
    return combined_wsc_loss(steps, mask, sets, no_edges(len(tprs)), lambda_balance=1.0,
                             temperature=temperature)


PAIRED = dict(positives=[[1], [0], [3], [2]], negatives=[[2, 3], [2, 3], [0, 1], [0, 1]])


class TestGlobalLoss:
    def test_lower_when_positives_aligned(self):
        """Pulling the positive close and pushing negatives away lowers the loss."""
        aligned = [[1.0, 0.0], [0.99, 0.01], [-1.0, 0.0], [0.0, 1.0]]
        scrambled = [[1.0, 0.0], [-1.0, 0.05], [0.99, 0.0], [0.9, 0.1]]
        sets = make_contrast_sets(
            positives=[[1], [0], [], []],
            negatives=[[2, 3], [2, 3], [0, 1, 3], [0, 1, 2]],
        )
        assert float(global_loss(aligned, sets).data) < float(global_loss(scrambled, sets).data)

    def test_zero_when_no_positive_pairs(self):
        tprs = np.random.default_rng(0).normal(size=(3, 4))
        sets = make_contrast_sets(positives=[[], [], []],
                                  negatives=[[1, 2], [0, 2], [0, 1]])
        loss = global_loss(tprs, sets)
        assert float(loss.data) == 0.0
        assert not loss.requires_grad

    def test_gradient_flows(self):
        steps, mask = one_step(np.random.default_rng(1).normal(size=(4, 6)))
        combined_wsc_loss(steps, mask, make_contrast_sets(**PAIRED), no_edges(4),
                          lambda_balance=1.0).backward()
        assert steps.grad is not None
        assert np.abs(steps.grad).sum() > 0

    def test_temperature_scales_sharpness(self):
        tprs = np.random.default_rng(2).normal(size=(4, 8))
        sets = make_contrast_sets(**PAIRED)
        hot = float(global_loss(tprs, sets, temperature=1.0).data)
        cold = float(global_loss(tprs, sets, temperature=0.05).data)
        assert hot != cold

    def test_one_step_steps_give_the_tprs_loss_exactly(self):
        """The masked mean of one all-valid step is the step itself, so the
        node matches the oracle's global loss on those TPRs bit for bit."""
        tprs = np.random.default_rng(5).normal(size=(4, 8))
        sets = make_contrast_sets(**PAIRED)
        steps, mask = one_step(tprs)
        loss = combined_wsc_loss(steps, mask, sets, no_edges(4), lambda_balance=1.0)
        loss.backward()
        reference_tprs = nn.Tensor(tprs, requires_grad=True)
        reference = global_wsc_loss(reference_tprs, sets)
        reference.backward()
        assert loss.data.tobytes() == reference.data.tobytes()
        assert steps.grad[:, 0, :].tobytes() == reference_tprs.grad.tobytes()

    def test_optimisation_pulls_positives_together(self):
        """A few gradient steps on the global loss should raise positive-pair
        cosine similarity above negative-pair similarity."""
        rng = np.random.default_rng(3)
        steps = nn.Parameter(rng.normal(size=(4, 1, 8)))
        mask = np.ones((4, 1))
        sets = make_contrast_sets(**PAIRED)
        optimizer = nn.Adam([steps], lr=0.05)
        for _ in range(60):
            optimizer.minimize(combined_wsc_loss(steps, mask, sets, no_edges(4),
                                                 lambda_balance=1.0, temperature=0.2))

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        tprs = steps.data[:, 0, :]
        positive_sim = cosine(tprs[0], tprs[1])
        negative_sim = max(cosine(tprs[0], tprs[2]), cosine(tprs[0], tprs[3]))
        assert positive_sim > negative_sim


class TestLocalLoss:
    def _loss(self, steps, mask, edge_sets):
        sets = make_contrast_sets([[]] * len(mask), [[]] * len(mask))
        return combined_wsc_loss(steps, mask, sets, edge_sets, lambda_balance=0.0)

    def test_prefers_similar_positive_edges(self):
        # Step (0, 0) is the only valid one, so the TPR is [1, 0]: aligned with
        # the edge at (0, 0), anti-aligned with the padded edge at (0, 1).
        steps = nn.Tensor(np.array([[[1.0, 0.0], [-1.0, 0.0]]]), requires_grad=True)
        mask = np.array([[1.0, 0.0]])
        good = make_edge_sets(positive=[([0], [0])], negative=[([0], [1])])
        bad = make_edge_sets(positive=[([0], [1])], negative=[([0], [0])])
        assert float(self._loss(steps, mask, good).data) < float(self._loss(steps, mask, bad).data)

    def test_zero_when_no_samples(self):
        steps = nn.Tensor(np.ones((2, 4, 3)), requires_grad=True)
        loss = self._loss(steps, np.ones((2, 4)), no_edges(2))
        assert float(loss.data) == 0.0
        assert not loss.requires_grad

    def test_gradient_flows_to_edge_representations(self):
        rng = np.random.default_rng(0)
        steps = nn.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        sets = make_edge_sets(positive=[([0, 0], [0, 1]), ([1], [0])],
                              negative=[([1], [2]), ([0], [2])])
        self._loss(steps, mask, sets).backward()
        # (0, 2) is padding, but a sampled negative edge still gets a gradient.
        for row, col in [(0, 0), (0, 1), (1, 0), (1, 2), (0, 2)]:
            assert np.abs(steps.grad[row, col]).sum() > 0

    def test_rejects_samples_out_of_query_order(self):
        steps = nn.Tensor(np.ones((2, 1, 3)), requires_grad=True)
        sets = make_edge_sets(positive=[([0], [0]), ([1], [0])],
                              negative=[([1], [0]), ([0], [0])])
        sets.negative_query = sets.negative_query[::-1].copy()
        with pytest.raises(ValueError, match="grouped by query"):
            self._loss(steps, np.ones((2, 1)), sets)


class TestCombinedLoss:
    def _setup(self):
        rng = np.random.default_rng(4)
        steps = nn.Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True)
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 1, 0, 0]],
                        dtype=np.float64)
        edge_sets = make_edge_sets(
            positive=[([0], [0]), ([1], [1]), ([2], [0]), ([3], [2])],
            negative=[([2], [1]), ([3], [0]), ([0], [3]), ([1], [4])],
        )
        return steps, mask, make_contrast_sets(**PAIRED), edge_sets

    def _value(self, lambda_balance):
        steps, mask, contrast, edge_sets = self._setup()
        return float(combined_wsc_loss(steps, mask, contrast, edge_sets,
                                       lambda_balance=lambda_balance).data)

    def test_lambda_one_equals_global_only(self):
        steps, mask, contrast, _ = self._setup()
        tprs = nn.functional.masked_mean(steps, mask)
        assert self._value(1.0) == float(global_wsc_loss(tprs, contrast).data)

    def test_lambda_zero_equals_local_only(self):
        steps, mask, _, edge_sets = self._setup()
        tprs = nn.functional.masked_mean(steps, mask)
        assert self._value(0.0) == float(local_wsc_loss(tprs, steps, edge_sets).data)

    @pytest.mark.parametrize("lambda_balance", [0.3, 0.8])
    def test_intermediate_lambda_is_weighted_sum(self, lambda_balance):
        expected = (lambda_balance * self._value(1.0)
                    + (1 - lambda_balance) * self._value(0.0))
        assert self._value(lambda_balance) == pytest.approx(expected, rel=1e-12)

    def test_combined_loss_is_differentiable(self):
        steps, mask, contrast, edge_sets = self._setup()
        loss = combined_wsc_loss(steps, mask, contrast, edge_sets, lambda_balance=0.5)
        assert loss._parents == (steps,)
        loss.backward()
        assert np.abs(steps.grad).sum() > 0

    def test_no_graph_without_grad(self):
        steps, mask, contrast, edge_sets = self._setup()
        with nn.no_grad():
            loss = combined_wsc_loss(steps, mask, contrast, edge_sets)
        assert not loss.requires_grad and loss._parents == ()
        assert float(loss.data) == self._value(0.8)


class TestRejectsBadInput:
    """Regressions: each of these was silently aliased, accepted or failed deep."""

    def _call(self, **kwargs):
        steps, mask = one_step(np.eye(4))
        arguments = dict(steps=steps, mask=mask, contrast_sets=make_contrast_sets(**PAIRED),
                         edge_sets=no_edges(4))
        arguments.update(kwargs)
        return combined_wsc_loss(**arguments)

    @pytest.mark.parametrize("lambda_balance", [1.5, -2.0, float("nan"), True])
    def test_lambda_outside_unit_interval(self, lambda_balance):
        with pytest.raises(ValueError, match=f"lambda_balance .*{lambda_balance}"):
            self._call(lambda_balance=lambda_balance)

    @pytest.mark.parametrize("temperature", [0, 0.0, -0.1, float("nan"), float("inf")])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        with pytest.raises(ValueError, match=f"temperature .*{temperature}"):
            self._call(temperature=temperature)

    @pytest.mark.parametrize("shape", [(3, 1), (4, 2), (4,)])
    def test_mask_must_match_steps(self, shape):
        with pytest.raises(ValueError, match=r"mask .*\(4, 1\)"):
            self._call(mask=np.ones(shape))
