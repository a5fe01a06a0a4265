"""Graph-representation baselines: Node2vec, DGI and GMI.

All three learn road-network *node* embeddings without temporal information;
an edge representation is the concatenation of its endpoint embeddings, and a
path representation is the mean of its edge representations — exactly how the
paper adapts graph-node methods to paths (§VII-A3).

* :class:`Node2vecPathModel` — random-walk skip-gram embeddings.
* :class:`DGIPathModel` — Deep Graph Infomax: a one-layer graph convolution
  encoder trained to discriminate true (node, graph-summary) pairs from pairs
  built on corrupted (row-shuffled) features.
* :class:`GMIPathModel` — Graphical Mutual Information: the same encoder
  trained to align each node's representation with its own and its
  neighbours' input features (a feature-reconstruction form of local MI).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graph import Node2Vec, Node2VecConfig
from .base import RepresentationModel, mean_pool_edge_vectors

__all__ = ["Node2vecPathModel", "DGIPathModel", "GMIPathModel"]

#: Node2vec walks started per node, and steps per walk.
_WALKS_PER_NODE = 3
_WALK_LENGTH = 10
#: Full-graph Adam steps and learning rate of DGI and GMI.
_GRAPH_EPOCHS = 30
_GRAPH_LR = 0.01


def _node_input_features(network):
    """Per-node features: mean one-hot edge features of incident edges."""
    encoder = network.feature_encoder
    sample = encoder.one_hot(network.edge_features(0))
    features = np.zeros((network.num_nodes, len(sample)))
    counts = np.zeros(network.num_nodes)
    for edge in range(network.num_edges):
        one_hot = encoder.one_hot(network.edge_features(edge))
        source, target = network.edge_endpoints(edge)
        features[source] += one_hot
        features[target] += one_hot
        counts[source] += 1
        counts[target] += 1
    counts = np.maximum(counts, 1.0)
    return features / counts[:, None]


def _normalized_adjacency(network):
    """Symmetric normalised adjacency with self-loops (GCN propagation matrix)."""
    size = network.num_nodes
    adjacency = np.eye(size)
    for edge in range(network.num_edges):
        source, target = network.edge_endpoints(edge)
        adjacency[source, target] = 1.0
        adjacency[target, source] = 1.0
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


def _edge_vectors_from_nodes(network, node_embeddings):
    """Edge representation = concatenation of endpoint node embeddings."""
    dim = node_embeddings.shape[1]
    edges = np.zeros((network.num_edges, 2 * dim))
    for edge in range(network.num_edges):
        source, target = network.edge_endpoints(edge)
        edges[edge, :dim] = node_embeddings[source]
        edges[edge, dim:] = node_embeddings[target]
    return edges


class _EdgeVectorModel(RepresentationModel):
    """A path is the mean of its edges' vectors, set by ``fit``."""

    def __init__(self, dim=16, seed=0):
        self.dim = dim
        self.seed = seed
        self._edge_vectors = None

    def encode(self, temporal_paths):
        if self._edge_vectors is None:
            raise RuntimeError("model has not been fitted")
        return mean_pool_edge_vectors(self._edge_vectors, temporal_paths)


class Node2vecPathModel(_EdgeVectorModel):
    """Paths represented by averaging node2vec edge embeddings."""

    def __init__(self, dim=16, seed=0):
        if dim % 2:
            raise ValueError("dim must be even")
        super().__init__(dim=dim, seed=seed)

    def fit(self, city, **kwargs):
        node2vec = Node2Vec(Node2VecConfig(
            dim=self.dim // 2,
            walks_per_node=_WALKS_PER_NODE,
            walk_length=_WALK_LENGTH,
            seed=self.seed,
        ))
        node2vec.fit_road_network(city.network)
        self._edge_vectors = node2vec.edge_topology_embeddings(city.network)
        return self


class _GCNEncoder(nn.Module):
    """One-layer graph convolution with PReLU-free tanh nonlinearity."""

    def __init__(self, in_dim, out_dim, rng=None):
        super().__init__()
        self.linear = nn.Linear(in_dim, out_dim, rng=rng)

    def forward(self, adjacency, features):
        return (adjacency @ self.linear(features)).tanh()


class DGIPathModel(_EdgeVectorModel):
    """Deep Graph Infomax over the road network."""

    def fit(self, city, **kwargs):
        network = city.network
        rng = np.random.default_rng(self.seed)
        features = _node_input_features(network)
        adjacency = nn.Tensor(_normalized_adjacency(network))
        features_tensor = nn.Tensor(features)

        encoder = _GCNEncoder(features.shape[1], self.dim, rng=rng)
        discriminator = nn.Linear(self.dim, self.dim, bias=False, rng=rng)
        params = list(encoder.parameters()) + list(discriminator.parameters())
        optimizer = nn.Adam(params, lr=_GRAPH_LR)

        for _ in range(_GRAPH_EPOCHS):
            positive = encoder(adjacency, features_tensor)
            corrupted = nn.Tensor(features[rng.permutation(len(features))])
            negative = encoder(adjacency, corrupted)
            summary = positive.mean(axis=0).sigmoid()          # (dim,)

            projected = discriminator(nn.Tensor(summary.data.reshape(1, -1)))
            pos_scores = (positive * projected).sum(axis=-1)
            neg_scores = (negative * projected).sum(axis=-1)
            scores = nn.Tensor.concatenate([pos_scores, neg_scores], axis=0)
            labels = nn.Tensor(np.concatenate([
                np.ones(len(features)), np.zeros(len(features))
            ]))
            loss = nn.functional.binary_cross_entropy_with_logits(scores, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        with nn.no_grad():
            node_embeddings = encoder(adjacency, features_tensor).data
        self._edge_vectors = _edge_vectors_from_nodes(network, node_embeddings)
        return self


class GMIPathModel(_EdgeVectorModel):
    """Graphical Mutual Information maximisation over the road network."""

    def fit(self, city, **kwargs):
        network = city.network
        rng = np.random.default_rng(self.seed)
        features = _node_input_features(network)
        adjacency_matrix = _normalized_adjacency(network)
        adjacency = nn.Tensor(adjacency_matrix)
        features_tensor = nn.Tensor(features)

        encoder = _GCNEncoder(features.shape[1], self.dim, rng=rng)
        decoder = nn.Linear(self.dim, features.shape[1], rng=rng)
        params = list(encoder.parameters()) + list(decoder.parameters())
        optimizer = nn.Adam(params, lr=_GRAPH_LR)

        # Neighbour-feature target: the adjacency-smoothed input features.
        neighbour_features = nn.Tensor(adjacency_matrix @ features)

        for _ in range(_GRAPH_EPOCHS):
            embeddings = encoder(adjacency, features_tensor)
            reconstructed = decoder(embeddings)
            # MI surrogate: reconstruct both own and neighbour features.
            loss = (
                nn.functional.mse_loss(reconstructed, features_tensor)
                + nn.functional.mse_loss(reconstructed, neighbour_features)
            )
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        with nn.no_grad():
            node_embeddings = encoder(adjacency, features_tensor).data
        self._edge_vectors = _edge_vectors_from_nodes(network, node_embeddings)
        return self
