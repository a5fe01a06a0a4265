"""Tests for the temporal path encoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PAD_EDGE_ID, TemporalPathEncoder, pad_paths
from repro.core.encoder import encode_in_chunks
from repro.datasets import TemporalPath
from repro.temporal import DepartureTime


@pytest.fixture(scope="module")
def encoder(shared_resources):
    return shared_resources.new_encoder()


def paths_from_city(city, count=4):
    return city.unlabeled.temporal_paths[:count]


class TestPadPaths:
    def test_shapes_and_mask(self, tiny_city):
        paths = paths_from_city(tiny_city, 3)
        edge_ids, mask = pad_paths(paths)
        max_len = max(len(p) for p in paths)
        assert edge_ids.shape == (3, max_len)
        assert mask.shape == (3, max_len)
        for row, path in enumerate(paths):
            assert mask[row].sum() == len(path)
            np.testing.assert_array_equal(edge_ids[row, :len(path)], list(path.path))

    def test_padding_uses_reserved_pad_id(self, tiny_city):
        paths = paths_from_city(tiny_city, 4)
        edge_ids, mask = pad_paths(paths)
        for row, path in enumerate(paths):
            np.testing.assert_array_equal(
                edge_ids[row, len(path):], PAD_EDGE_ID)
        # The sentinel is never a valid edge id.
        assert PAD_EDGE_ID < 0
        assert not np.any(edge_ids[mask.astype(bool)] == PAD_EDGE_ID)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pad_paths([])


class TestTemporalPathEncoder:
    def test_output_shapes(self, encoder, tiny_city, tiny_config):
        paths = paths_from_city(tiny_city, 4)
        tprs, sters, mask = encoder(paths)
        max_len = max(len(p) for p in paths)
        assert tprs.shape == (4, tiny_config.hidden_dim)
        assert sters.shape == (4, max_len, tiny_config.hidden_dim)
        assert mask.shape == (4, max_len)

    def test_encode_returns_numpy_without_grad(self, encoder, tiny_city, tiny_config):
        paths = paths_from_city(tiny_city, 5)
        reps = encoder.encode(paths)
        assert isinstance(reps, np.ndarray)
        assert reps.shape == (5, tiny_config.hidden_dim)
        assert np.isfinite(reps).all()

    def test_encode_chunks_of_64_match_one_forward(self, encoder, tiny_city):
        paths = list(tiny_city.unlabeled.temporal_paths[:35]) * 2
        chunks = []
        reps = encode_in_chunks(lambda chunk: chunks.append(len(chunk)) or encoder(chunk)[0].data,
                                paths, (0, encoder.output_dim))
        assert chunks == [64, 6]
        np.testing.assert_allclose(reps[64:], encoder(paths[64:])[0].data, atol=1e-12)

    def test_parameters_and_outputs_are_float64(self, encoder, tiny_city):
        tprs, sters, _ = encoder(paths_from_city(tiny_city, 3))
        assert tprs.dtype == np.float64
        assert sters.dtype == np.float64
        assert all(p.dtype == np.float64 for p in encoder.parameters())

    def test_encode_empty_list(self, encoder, tiny_config):
        reps = encoder.encode([])
        assert reps.shape == (0, tiny_config.hidden_dim)

    def test_tpr_is_mean_of_valid_edge_representations(self, encoder, tiny_city):
        paths = paths_from_city(tiny_city, 3)
        tprs, sters, _ = encoder(paths)
        for row, path in enumerate(paths):
            valid = sters.data[row, :len(path)]
            np.testing.assert_allclose(tprs.data[row], valid.mean(axis=0), atol=1e-9)

    def test_departure_time_changes_representation(self, encoder, tiny_city):
        base = tiny_city.unlabeled.temporal_paths[0]
        peak = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0))
        night = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0))
        reps = encoder.encode([peak, night])
        assert not np.allclose(reps[0], reps[1])

    def test_use_temporal_false_ignores_departure_time(self, tiny_city, shared_resources):
        encoder_nt = shared_resources.new_encoder(use_temporal=False)
        base = tiny_city.unlabeled.temporal_paths[0]
        peak = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 8.0))
        night = TemporalPath(path=base.path, departure_time=DepartureTime.from_hour(1, 3.0))
        reps = encoder_nt.encode([peak, night])
        np.testing.assert_allclose(reps[0], reps[1])

    def test_new_encoder_draws_spatial_then_lstm_from_one_seed(self, tiny_config,
                                                              shared_resources):
        rng = np.random.default_rng(5)
        manual = TemporalPathEncoder(tiny_config, shared_resources.new_spatial_embedding(rng=rng),
                                     shared_resources.new_temporal_embedding(), rng).state_dict()
        built = shared_resources.new_encoder(seed=5).state_dict()
        assert manual.keys() == built.keys()
        for name, value in manual.items():
            np.testing.assert_array_equal(value, built[name], err_msg=name)

    def test_different_paths_have_different_representations(self, encoder, tiny_city):
        paths = paths_from_city(tiny_city, 2)
        if paths[0].path == paths[1].path:
            pytest.skip("tiny corpus produced identical paths")
        reps = encoder.encode(paths)
        assert not np.allclose(reps[0], reps[1])

    def test_batch_order_invariance(self, encoder, tiny_city):
        paths = paths_from_city(tiny_city, 3)
        forward = encoder.encode(paths)
        backward = encoder.encode(list(reversed(paths)))
        np.testing.assert_allclose(forward[0], backward[-1], atol=1e-9)

    def test_gradients_flow_through_encoder(self, encoder, tiny_city):
        paths = paths_from_city(tiny_city, 3)
        encoder(paths)[0].sum().backward()
        grads = [p.grad for p in encoder.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)
        for p in encoder.parameters():
            p.zero_grad()


class TestReservedPadId:
    """Regression tests: masked positions never contribute to pooled
    embeddings or gradients (the reserved-pad-id fix)."""

    def test_spatial_embedding_is_exactly_zero_at_pad_positions(
            self, shared_resources):
        spatial = shared_resources.new_spatial_embedding()
        batch = np.array([[0, 1, PAD_EDGE_ID, PAD_EDGE_ID], [2, 3, 1, 0]])
        embedded = spatial(batch)
        np.testing.assert_array_equal(embedded.data[0, 2:], 0.0)
        assert np.abs(embedded.data[0, :2]).sum() > 0
        assert np.abs(embedded.data[1]).sum() > 0

    def test_tpr_independent_of_batch_padding(self, encoder, tiny_city):
        paths = sorted(tiny_city.unlabeled.temporal_paths[:6], key=len)
        if len(paths[0]) == len(paths[-1]):
            pytest.skip("tiny corpus produced equal-length paths")
        alone = encoder.encode([paths[0]])
        batched = encoder.encode(paths)
        np.testing.assert_allclose(alone[0], batched[0], atol=1e-12)

    def test_pad_positions_receive_no_gradient(self, tiny_city, shared_resources):
        encoder = shared_resources.new_encoder()
        paths = sorted(tiny_city.unlabeled.temporal_paths[:5], key=len)
        if len(paths[0]) == len(paths[-1]):
            pytest.skip("tiny corpus produced equal-length paths")

        def gradients(batches):
            for p in encoder.parameters():
                p.zero_grad()
            for batch in batches:
                encoder(batch)[0].sum().backward()
            return {name: (None if p.grad is None else p.grad.copy())
                    for name, p in encoder.named_parameters()}

        # sum-of-TPR losses decompose per path, so the padded-batch gradient
        # must equal the sum of unpadded single-path gradients -- unless the
        # pad positions leak gradient.
        padded = gradients([paths])
        unpadded = gradients([[p] for p in paths])
        assert set(padded) == set(unpadded)
        for name, grad in padded.items():
            other = unpadded[name]
            if grad is None or other is None:
                assert grad is None and other is None, name
                continue
            np.testing.assert_allclose(grad, other, atol=1e-9, err_msg=name)
