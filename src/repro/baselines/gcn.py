"""GCN and STGCN baselines (edge-level travel-time estimation).

Both methods estimate the travel time of every *edge* in the road network and
score a path as the sum of its edges' predicted times (paper §VII-A3), which
is why they only appear in the travel-time columns of Table III.

* :class:`GCNTravelTimeModel` — a two-layer graph convolution over the road
  network's nodes; an edge's time is predicted from its endpoint embeddings
  and its own features, ignoring the departure time.
* :class:`STGCNTravelTimeModel` — the same spatial backbone with a temporal
  branch: the departure-time slot embedding modulates the edge-time
  prediction, giving the model the spatio-temporal structure of STGCN at a
  fraction of its original size.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.encoder import encode_in_chunks
from ..datasets.splits import minibatch_indices
from .base import _TEMPORAL_DIM, SupervisedModel, departure_slot_embedding
from .graph_embedding import _node_input_features, _normalized_adjacency

__all__ = ["GCNTravelTimeModel", "STGCNTravelTimeModel"]


class _EdgeTimeBackbone(nn.Module):
    """Two-layer GCN over nodes + an edge-level regression head."""

    def __init__(self, network, hidden_dim, extra_dim=0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.network = network
        self.node_features = _node_input_features(network)
        self.adjacency = _normalized_adjacency(network)
        feature_dim = self.node_features.shape[1]

        self.gcn1 = nn.Linear(feature_dim, hidden_dim, rng=rng)
        self.gcn2 = nn.Linear(hidden_dim, hidden_dim, rng=rng)
        edge_feature_dim = len(network.feature_encoder.one_hot(network.edge_features(0)))
        self.edge_head = nn.Linear(2 * hidden_dim + edge_feature_dim + extra_dim, 1, rng=rng)

        self._edge_one_hots = np.stack([
            network.feature_encoder.one_hot(network.edge_features(e))
            for e in range(network.num_edges)
        ])
        self._endpoints = np.array([
            network.edge_endpoints(e) for e in range(network.num_edges)
        ], dtype=np.int64)
        self._lengths = np.array([
            network.edge_length(e) for e in range(network.num_edges)
        ])

    def node_embeddings(self):
        adjacency = nn.Tensor(self.adjacency)
        features = nn.Tensor(self.node_features)
        hidden = (adjacency @ self.gcn1(features)).relu()
        return (adjacency @ self.gcn2(hidden)).relu()

    def edge_times(self, extra_per_edge=None):
        """Predicted traversal time (seconds) for every edge.

        ``extra_per_edge`` optionally appends a feature block (the temporal
        branch of STGCN).  Times are positive via softplus and scaled by the
        edge length so long edges naturally take longer.
        """
        nodes = self.node_embeddings()
        sources = nodes[self._endpoints[:, 0]]
        targets = nodes[self._endpoints[:, 1]]
        pieces = [sources, targets, nn.Tensor(self._edge_one_hots)]
        if extra_per_edge is not None:
            pieces.append(extra_per_edge)
        stacked = nn.Tensor.concatenate(pieces, axis=-1)
        raw = self.edge_head(stacked).reshape(-1)
        # softplus(raw) gives seconds-per-100-metres; multiply by length/100.
        softplus = ((raw.clip(-30.0, 30.0)).exp() + 1.0).log()
        return softplus * nn.Tensor(self._lengths / 100.0)


#: Minibatch size and Adam learning rate of GCN and STGCN.
_BATCH_SIZE = 16
_LR = 5e-3


class GCNTravelTimeModel(SupervisedModel):
    """Sum of GCN-predicted edge travel times (no temporal information)."""

    def __init__(self, hidden_dim=16, epochs=20, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.seed = seed
        self._backbone = None

    def fit(self, city, **kwargs):
        self._backbone = _EdgeTimeBackbone(city.network, self.hidden_dim, seed=self.seed)
        return self

    def _extra_for_batch(self, temporal_paths):
        return None

    def fit_supervised(self, examples, task, city=None, max_batches=None, **kwargs):
        if task != "travel_time":
            raise ValueError("GCN/STGCN baselines only support the travel_time task")
        if len(examples) < 2:
            raise ValueError(f"need at least 2 examples for one minibatch, got {len(examples)}")
        if self._backbone is None:
            if city is None:
                raise ValueError("pass city= the first time fit_supervised is called")
            self.fit(city)

        paths = [e.temporal_path for e in examples]
        targets = np.array([e.travel_time for e in examples], dtype=np.float64)
        scale = float(max(targets.mean(), 1e-6))

        rng = np.random.default_rng(self.seed)
        optimizer = nn.Adam(self._backbone.parameters(), lr=_LR)

        for indices in minibatch_indices(len(paths), _BATCH_SIZE, rng,
                                         epochs=self.epochs, max_batches=max_batches):
            batch_paths = [paths[i] for i in indices]
            batch_targets = nn.Tensor(targets[indices] / scale)

            predictions = self._predict_batch_tensor(batch_paths) * (1.0 / scale)
            loss = nn.functional.mse_loss(predictions, batch_targets)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(self._backbone.parameters(), 5.0)
            optimizer.step()
        return self

    def _predict_batch_tensor(self, temporal_paths):
        edge_times = self._backbone.edge_times(self._extra_for_batch(temporal_paths))
        rows = []
        for tp in temporal_paths:
            indices = np.asarray(list(tp.path), dtype=np.int64)
            rows.append(edge_times[indices].sum().reshape(1))
        return nn.Tensor.concatenate(rows, axis=0)

    def predict(self, temporal_paths, batch_size=64):
        if self._backbone is None:
            raise RuntimeError("model has not been trained")
        return encode_in_chunks(self._predict_batch_tensor, temporal_paths, (0,), batch_size)


class STGCNTravelTimeModel(GCNTravelTimeModel):
    """GCN backbone plus a temporal branch conditioned on the departure slot."""

    def fit(self, city, **kwargs):
        self._backbone = _EdgeTimeBackbone(
            city.network, self.hidden_dim, extra_dim=_TEMPORAL_DIM, seed=self.seed,
        )
        self._temporal = departure_slot_embedding()
        return self

    def _extra_for_batch(self, temporal_paths):
        # Every path in the chunk contributes one departure time; edges get
        # the batch-mean temporal embedding (a cheap stand-in for STGCN's
        # temporal convolution over the shared network state).
        temporal = self._temporal([tp.departure_time for tp in temporal_paths]).data
        mean_vector = temporal.mean(axis=0, keepdims=True)
        repeated = np.repeat(mean_vector, self._backbone._endpoints.shape[0], axis=0)
        return nn.Tensor(repeated)
