"""The encoder's two computations of the same numbers, byte for byte.

:class:`~repro.core.spatial.SpatialEmbedding` is one autograd node computed
in numpy; its output and the gradients of its four type tables must equal
the Tensor-composed graph of ``reference_spatial.spatial_graph``.
:meth:`~repro.core.encoder.TemporalPathEncoder.encode` runs that numpy input
through the LSTM cells without the autograd engine or the mask; its TPRs
must equal the Tensor forward's, and so must the representations of the
spatial-only encoder of the MB, BERT, InfoGraph and PIM baselines, which
shares that hook.  Bytes are compared, so signs of zero count as they do in
the goldens.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_spatial import spatial_graph

import repro
from repro import nn
from repro.baselines import SpatialSequenceEncoder
from repro.baselines.deepgtt import _DeepGTTEncoder
from repro.baselines.hmtrl import _HMTRLEncoder
from repro.core import PAD_EDGE_ID, PathEncoder, TemporalPathEncoder
from repro.core.encoder import pad_paths
from repro.datasets import TemporalPath
from repro.temporal import DepartureTime


def _bytes(array):
    return np.ascontiguousarray(array).tobytes()


def _type_weights(spatial):
    return [spatial.road_type_embedding.weight, spatial.lanes_embedding.weight,
            spatial.one_way_embedding.weight, spatial.signals_embedding.weight]


def _weight_grads(spatial, build, edge_id_batches, rng):
    """Type-table gradients after one backward through ``build`` of every
    batch, each output weighted by a seeded random upstream gradient."""
    for weight in _type_weights(spatial):
        weight.zero_grad()
    outputs = [build(spatial, batch) for batch in edge_id_batches]
    total = sum((out * nn.Tensor(rng.standard_normal(out.shape))).sum() for out in outputs)
    total.backward()
    grads = [weight.grad.copy() for weight in _type_weights(spatial)]
    for weight in _type_weights(spatial):
        weight.zero_grad()
    return [out.data for out in outputs], grads


@pytest.fixture(scope="module")
def spatial(shared_resources):
    return shared_resources.new_spatial_embedding(rng=np.random.default_rng(3))


@pytest.mark.parametrize("batches", [
    [[[0, 1, 2], [3, 4, 5]]],
    [[[0, 1, PAD_EDGE_ID, PAD_EDGE_ID], [2, 3, 1, 0], [5, PAD_EDGE_ID, PAD_EDGE_ID, PAD_EDGE_ID]]],
    # Two reads in one graph: each weight sums the reads' gradients in the
    # engine's order.
    [[[1, 1, 1]], [[2, 0, PAD_EDGE_ID], [4, 4, 4]]],
], ids=["unpadded", "padded", "two reads"])
def test_spatial_node_matches_the_tensor_graph(spatial, batches):
    batches = [np.array(batch) for batch in batches]
    node_out, node_grads = _weight_grads(
        spatial, lambda module, batch: module(batch), batches, np.random.default_rng(0))
    graph_out, graph_grads = _weight_grads(
        spatial, spatial_graph, batches, np.random.default_rng(0))
    for got, want in zip(node_out, graph_out):
        assert got.shape == want.shape
        assert _bytes(got) == _bytes(want)
    for got, want in zip(node_grads, graph_grads):
        assert _bytes(got) == _bytes(want)


def test_spatial_node_is_one_node(spatial):
    out = spatial(np.array([[0, 1, PAD_EDGE_ID]]))
    assert out._op == "spatial"
    assert set(map(id, out._parents)) == set(map(id, _type_weights(spatial)))
    with nn.no_grad():
        assert spatial(np.array([[0, 1]]))._parents == ()


def test_encoder_steps_are_two_nodes_over_the_parameters(shared_resources, tiny_city):
    encoder = shared_resources.new_encoder()
    steps, _ = encoder._steps(tiny_city.unlabeled.temporal_paths[:4])
    inputs = steps._parents[0]
    assert (steps._op, inputs._op) == ("lstm", "spatial")
    assert all(parent._parents == () for parent in steps._parents[1:] + inputs._parents)


def _reference_forward(encoder, temporal_paths):
    """The encoder's TPRs from engine operations: the Tensor-composed spatial
    graph, the temporal broadcast, the masked LSTM and the masked mean."""
    edge_ids, mask = pad_paths(temporal_paths)
    spatial = spatial_graph(encoder.spatial, edge_ids)
    temporal = encoder.temporal([tp.departure_time for tp in temporal_paths]).data
    if not encoder.use_temporal:
        temporal = np.zeros_like(temporal)
    temporal_steps = nn.Tensor(np.repeat(temporal[:, None, :], edge_ids.shape[1], axis=1))
    inputs = nn.Tensor.concatenate([temporal_steps, spatial], axis=-1)
    outputs, _ = encoder.lstm(inputs, mask=mask)
    return nn.functional.masked_mean(outputs, mask)


def _encoder(shared_resources, lstm_layers, use_temporal, seed=0):
    config = shared_resources.config.with_overrides(lstm_layers=lstm_layers)
    rng = np.random.default_rng(seed)
    return TemporalPathEncoder(config, shared_resources.new_spatial_embedding(rng=rng),
                               shared_resources.new_temporal_embedding(), rng,
                               use_temporal=use_temporal)


@pytest.fixture(scope="module")
def encoders(shared_resources):
    return {(layers, use_temporal): _encoder(shared_resources, layers, use_temporal)
            for layers in (1, 2) for use_temporal in (True, False)}


def _paths(num_edges):
    path = st.lists(st.integers(0, num_edges - 1), min_size=1, max_size=14)
    departure = st.builds(DepartureTime, st.integers(0, 6), st.floats(0.0, 86399.0))
    return st.lists(st.builds(TemporalPath, path, departure), min_size=1, max_size=64)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lstm_layers=st.sampled_from([1, 2]), use_temporal=st.booleans())
def test_encode_equals_the_tensor_forward(encoders, tiny_city, data, lstm_layers,
                                          use_temporal):
    encoder = encoders[(lstm_layers, use_temporal)]
    chunk = data.draw(_paths(tiny_city.network.num_edges))
    encoded = encoder.encode(chunk)
    forward = encoder(chunk)[0].data
    assert encoded.shape == forward.shape == (len(chunk), encoder.output_dim)
    assert encoded.dtype == np.float64
    assert _bytes(encoded) == _bytes(forward)


@pytest.mark.parametrize("lstm_layers", [1, 2])
@pytest.mark.parametrize("use_temporal", [True, False])
def test_encoder_input_node_keeps_outputs_and_gradients(shared_resources, tiny_city,
                                                        lstm_layers, use_temporal):
    encoder = _encoder(shared_resources, lstm_layers, use_temporal, seed=4)
    paths = tiny_city.unlabeled.temporal_paths[:9]

    def run(forward):
        for param in encoder.parameters():
            param.zero_grad()
        tprs = forward(paths)
        (tprs * nn.Tensor(np.random.default_rng(1).standard_normal(tprs.shape))).sum().backward()
        return tprs.data, {name: param.grad.copy()
                           for name, param in encoder.named_parameters()}

    tprs, grads = run(lambda chunk: encoder(chunk)[0])
    want_tprs, want_grads = run(lambda chunk: _reference_forward(encoder, chunk))
    assert _bytes(tprs) == _bytes(want_tprs)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert _bytes(grad) == _bytes(want_grads[name]), name


def _spatial_reference_forward(encoder, temporal_paths):
    """The spatial-only encoder's representations from the pipeline it had
    before it shared the temporal path encoder's: the spatial embedding's
    forward, the masked LSTM and the Tensor masked mean."""
    edge_ids, mask = pad_paths(temporal_paths)
    outputs, _ = encoder.lstm(encoder.spatial(edge_ids), mask=mask)
    return nn.functional.masked_mean(outputs, mask)


@pytest.fixture(scope="module")
def spatial_encoder(tiny_city):
    return SpatialSequenceEncoder(tiny_city.network, hidden_dim=8, seed=5)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spatial_encoder_encode_equals_the_tensor_forward(spatial_encoder, tiny_city, data):
    chunk = data.draw(_paths(tiny_city.network.num_edges))
    encoded = spatial_encoder.encode(chunk)
    with nn.no_grad():
        forward = spatial_encoder(chunk)[0].data
        reference = _spatial_reference_forward(spatial_encoder, chunk).data
    assert encoded.shape == (len(chunk), spatial_encoder.output_dim)
    assert _bytes(encoded) == _bytes(forward) == _bytes(reference)


def test_spatial_encoder_keeps_outputs_and_gradients(spatial_encoder, tiny_city):
    paths = tiny_city.unlabeled.temporal_paths[:9]

    def run(forward):
        for param in spatial_encoder.parameters():
            param.zero_grad()
        pooled = forward(paths)
        (pooled * nn.Tensor(np.random.default_rng(1).standard_normal(pooled.shape))).sum().backward()
        return pooled.data, {name: param.grad.copy()
                             for name, param in spatial_encoder.named_parameters()}

    pooled, grads = run(lambda chunk: spatial_encoder(chunk)[0])
    want_pooled, want_grads = run(lambda chunk: _spatial_reference_forward(spatial_encoder, chunk))
    assert _bytes(pooled) == _bytes(want_pooled)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert _bytes(grad) == _bytes(want_grads[name]), name


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


def test_every_lstm_encoder_encodes_through_the_shared_numpy_hook(shared_resources,
                                                                  tiny_city):
    rng = np.random.default_rng(0)
    config = shared_resources.config
    builders = {
        TemporalPathEncoder: lambda: shared_resources.new_encoder(),
        SpatialSequenceEncoder: lambda: SpatialSequenceEncoder(tiny_city.network),
        _HMTRLEncoder: lambda: _HMTRLEncoder(config, shared_resources.new_spatial_embedding(rng=rng),
                                             shared_resources.new_temporal_embedding(), rng),
        _DeepGTTEncoder: lambda: _DeepGTTEncoder(shared_resources),
    }
    from repro.core import LSTMPathEncoder

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    # A new path encoder must be listed here, so that it is checked.
    assert {cls for cls in _subclasses(PathEncoder)
            if cls.__module__.startswith("repro.")} == set(builders) | {LSTMPathEncoder}
    shared = LSTMPathEncoder._representations
    for cls, build in builders.items():
        encoder = build()
        assert type(encoder) is cls
        if not hasattr(encoder, "lstm"):
            continue
        if cls is _HMTRLEncoder:
            # Its mean+max pooling is not the shared hook's masked mean.
            assert cls._representations is PathEncoder._representations
        else:
            assert cls._representations is shared, cls.__name__
            assert cls._representations is not PathEncoder._representations


def test_hmtrl_encode_is_its_forward(shared_resources, tiny_city):
    rng = np.random.default_rng(2)
    encoder = _HMTRLEncoder(shared_resources.config,
                            shared_resources.new_spatial_embedding(rng=rng),
                            shared_resources.new_temporal_embedding(), rng)
    paths = tiny_city.unlabeled.temporal_paths[:20]
    encoded = encoder.encode(paths)
    with nn.no_grad():
        pooled = encoder(paths)[0].data
    assert _bytes(encoded) == _bytes(pooled)
    # The mean+max mix, not the temporal path encoder's mean.
    assert _bytes(encoded) != _bytes(TemporalPathEncoder._representations(encoder, paths))
