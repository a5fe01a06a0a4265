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

DGI and GMI share one fit (``_GraphInfomaxModel.fit``): each gives only its
discriminator or decoder and its loss.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graph import Node2Vec, Node2VecConfig, concat_endpoint_embeddings
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
    one_hots = network.feature_encoder.one_hot_matrix(network.edge_feature_matrix())
    endpoints = network.edge_endpoint_matrix()
    features = np.zeros((network.num_nodes, one_hots.shape[1]))
    # Sums of 0/1 entries are exact, so the accumulation order is immaterial.
    np.add.at(features, endpoints[:, 0], one_hots)
    np.add.at(features, endpoints[:, 1], one_hots)
    counts = np.maximum(np.bincount(endpoints.ravel(), minlength=network.num_nodes), 1.0)
    return features / counts[:, None]


def _normalized_adjacency(network):
    """Symmetric normalised adjacency with self-loops (GCN propagation matrix)."""
    sources, targets = network.edge_endpoint_matrix().T
    adjacency = np.eye(network.num_nodes)
    adjacency[sources, targets] = 1.0
    adjacency[targets, sources] = 1.0
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


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

    def __init__(self, adjacency, in_dim, out_dim, rng=None):
        super().__init__()
        self.adjacency = nn.Tensor(adjacency)
        self.linear = nn.Linear(in_dim, out_dim, rng=rng)

    def forward(self, features):
        return (self.adjacency @ self.linear(features)).tanh()


class _GraphInfomaxModel(_EdgeVectorModel):
    """Base of DGI and GMI: one GCN fit, one objective each.

    ``fit`` builds the node features, the propagation matrix and the
    encoder, takes ``_GRAPH_EPOCHS`` full-graph Adam steps on the
    subclass's ``_objective`` and keeps the edge vectors of the trained
    encoder's node embeddings.
    """

    def fit(self, city, **kwargs):
        network = city.network
        rng = np.random.default_rng(self.seed)
        features = _node_input_features(network)
        adjacency = _normalized_adjacency(network)
        encoder = _GCNEncoder(adjacency, features.shape[1], self.dim, rng=rng)
        head, loss_of = self._objective(encoder, adjacency, features, rng)
        optimizer = nn.Adam(list(encoder.parameters()) + list(head.parameters()), lr=_GRAPH_LR)
        for _ in range(_GRAPH_EPOCHS):
            optimizer.minimize(loss_of())

        with nn.no_grad():
            node_embeddings = encoder(nn.Tensor(features)).data
        self._edge_vectors = concat_endpoint_embeddings(network, node_embeddings)
        return self

    def _objective(self, encoder, adjacency, features, rng):
        """``(head, loss_of)``: the discriminator or decoder trained next to
        the encoder, and ``loss_of()``, the loss of one full-graph step."""
        raise NotImplementedError


class DGIPathModel(_GraphInfomaxModel):
    """Deep Graph Infomax over the road network."""

    def _objective(self, encoder, adjacency, features, rng):
        discriminator = nn.Linear(self.dim, self.dim, bias=False, rng=rng)
        features_tensor = nn.Tensor(features)
        labels = nn.Tensor(np.concatenate([np.ones(len(features)), np.zeros(len(features))]))

        def loss_of():
            positive = encoder(features_tensor)
            corrupted = nn.Tensor(features[rng.permutation(len(features))])
            negative = encoder(corrupted)
            summary = positive.mean(axis=0).sigmoid()          # (dim,)

            projected = discriminator(nn.Tensor(summary.data.reshape(1, -1)))
            pos_scores = (positive * projected).sum(axis=-1)
            neg_scores = (negative * projected).sum(axis=-1)
            scores = nn.Tensor.concatenate([pos_scores, neg_scores], axis=0)
            return nn.functional.binary_cross_entropy_with_logits(scores, labels)

        return discriminator, loss_of


class GMIPathModel(_GraphInfomaxModel):
    """Graphical Mutual Information maximisation over the road network."""

    def _objective(self, encoder, adjacency, features, rng):
        decoder = nn.Linear(self.dim, features.shape[1], rng=rng)
        features_tensor = nn.Tensor(features)
        # Neighbour-feature target: the adjacency-smoothed input features.
        neighbour_features = nn.Tensor(adjacency @ features)

        def loss_of():
            reconstructed = decoder(encoder(features_tensor))
            # MI surrogate: reconstruct both own and neighbour features.
            return (
                nn.functional.mse_loss(reconstructed, features_tensor)
                + nn.functional.mse_loss(reconstructed, neighbour_features)
            )

        return decoder, loss_of
