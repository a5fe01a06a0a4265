"""Spatial embedding layer (paper §IV-B).

Each edge of a path is embedded as the concatenation of

* trainable dense embeddings of its four categorical features — road type,
  number of lanes, one-way flag, traffic signals (Eq. 3–4), and
* a fixed topology feature: the concatenation of the node2vec embeddings of
  the edge's two endpoint nodes (Eq. 5), projected to ``topology_dim``.

The topology feature comes from a node2vec run over the road network and is
kept frozen, exactly as in the paper; the categorical embedding matrices are
learned end-to-end with the rest of the encoder.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graph import Node2Vec, Node2VecConfig

__all__ = ["SpatialEmbedding", "compute_edge_topology_features"]


def compute_edge_topology_features(network, dim, config=None, seed=0):
    """Node2vec topology feature per edge (Eq. 5), shape ``(num_edges, dim)``.

    ``dim`` must be even: each endpoint contributes ``dim / 2`` dimensions.
    """
    if dim % 2 != 0:
        raise ValueError("topology dim must be even (two endpoint embeddings)")
    node_dim = dim // 2
    n2v_config = config or Node2VecConfig(dim=node_dim, seed=seed)
    if n2v_config.dim != node_dim:
        raise ValueError("config dim must equal topology dim / 2")
    node2vec = Node2Vec(n2v_config)
    node2vec.fit_road_network(network)
    return node2vec.edge_topology_embeddings(network)


class SpatialEmbedding(nn.Module):
    """Compute spatial feature embeddings for batches of edge-id sequences.

    Parameters
    ----------
    network:
        The road network whose edges will be embedded.
    config:
        A :class:`~repro.core.config.WSCCLConfig`.
    topology_features:
        Optional pre-computed ``(num_edges, topology_dim)`` array.  When
        omitted it is computed here with node2vec (the expensive part), so
        callers that share a network across models should pass it in.
    """

    def __init__(self, network, config, topology_features=None, rng=None):
        super().__init__()
        self.config = config
        self.network = network
        rng = rng or np.random.default_rng(config.seed)

        encoder = network.feature_encoder
        self.road_type_embedding = nn.Embedding(encoder.num_road_types, config.road_type_dim, rng=rng)
        self.lanes_embedding = nn.Embedding(encoder.num_lane_buckets, config.lanes_dim, rng=rng)
        self.one_way_embedding = nn.Embedding(encoder.num_one_way, config.one_way_dim, rng=rng)
        self.signals_embedding = nn.Embedding(encoder.num_signals, config.signals_dim, rng=rng)

        if topology_features is None:
            topology_features = compute_edge_topology_features(
                network, config.topology_dim,
                config=Node2VecConfig(
                    dim=config.topology_dim // 2,
                    walks_per_node=config.node2vec_walks,
                    walk_length=config.node2vec_walk_length,
                    window=config.node2vec_window,
                    epochs=config.node2vec_epochs,
                    seed=config.seed,
                ),
                seed=config.seed,
            )
        topology_features = np.asarray(topology_features, dtype=np.float64)
        if topology_features.shape != (network.num_edges, config.topology_dim):
            raise ValueError(
                "topology_features has shape "
                f"{topology_features.shape}, expected {(network.num_edges, config.topology_dim)}"
            )
        # Frozen buffer (not a Parameter): the paper does not fine-tune it.
        self._topology_features = topology_features

        # Categorical index matrix (num_edges, 4) for fast lookup.
        self._edge_categories = network.edge_feature_matrix()

    @property
    def output_dim(self):
        """``d`` of Eq. 6."""
        return self.config.spatial_dim

    @property
    def topology_features(self):
        """The frozen per-edge topology feature matrix."""
        return self._topology_features

    def forward(self, edge_id_batch):
        """Embed a padded batch of edge-id sequences.

        Parameters
        ----------
        edge_id_batch:
            Integer array of shape ``(batch, max_len)``.  Padding positions
            hold the reserved :data:`~repro.core.encoder.PAD_EDGE_ID`
            sentinel (any negative id); they embed to exactly zero vectors,
            so padded steps contribute neither activations nor gradients.
            An id ``>= num_edges`` raises ``ValueError``.

        Returns
        -------
        Tensor of shape ``(batch, max_len, spatial_dim)``.
        """
        edge_ids = np.asarray(edge_id_batch, dtype=np.int64)
        num_edges = len(self._edge_categories)
        if edge_ids.size and edge_ids.max() >= num_edges:
            raise ValueError(f"edge id {int(edge_ids.max())} is out of range "
                             f"for a network with {num_edges} edges")
        padded = edge_ids < 0
        has_padding = bool(padded.any())
        safe_ids = np.where(padded, 0, edge_ids) if has_padding else edge_ids
        categories = self._edge_categories[safe_ids]          # (B, T, 4)

        road_type = self.road_type_embedding(categories[..., 0])
        lanes = self.lanes_embedding(categories[..., 1])
        one_way = self.one_way_embedding(categories[..., 2])
        signals = self.signals_embedding(categories[..., 3])
        type_embedding = nn.Tensor.concatenate(
            [road_type, lanes, one_way, signals], axis=-1
        )                                                      # Eq. 4

        topology_features = self._topology_features[safe_ids]
        if has_padding:
            keep = (~padded).astype(np.float64)[..., None]
            topology_features = topology_features * keep
            type_embedding = type_embedding * nn.Tensor(keep)

        topology = nn.Tensor(topology_features)                # Eq. 5, frozen
        return nn.Tensor.concatenate([topology, type_embedding], axis=-1)  # Eq. 6
