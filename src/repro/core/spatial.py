"""Spatial embedding layer (paper §IV-B).

Each edge of a path is embedded as the concatenation of

* trainable dense embeddings of its four categorical features — road type,
  number of lanes, one-way flag, traffic signals (Eq. 3–4), and
* a fixed topology feature: the concatenation of the node2vec embeddings of
  the edge's two endpoint nodes (Eq. 5), projected to ``topology_dim``.

The topology feature comes from a node2vec run over the road network and is
kept frozen, exactly as in the paper: the layer takes it as an array, which
:func:`repro.core.model.edge_topology_features` computes (and
:class:`~repro.core.model.SharedResources` holds).  The categorical embedding
matrices are learned end-to-end with the rest of the encoder.

The forward is numpy: one gather of the topology rows and the four category
tables into one buffer (:meth:`SpatialEmbedding._gather`), wrapped in one
autograd node whose backward scatters each table's gradient columns with the
engine's indexing scatter (:meth:`SpatialEmbedding._node`).  Its output and
gradients are byte-identical to the Tensor-composed graph in
``tests/core/reference_spatial.py``.  The temporal path encoder gathers
straight into its LSTM input, which training wraps in the same node and
inference reads as an array.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.tensor import scatter_sum

__all__ = ["SpatialEmbedding"]


class SpatialEmbedding(nn.Module):
    """Compute spatial feature embeddings for batches of edge-id sequences.

    Parameters
    ----------
    network:
        The road network whose edges will be embedded.
    config:
        A :class:`~repro.core.config.WSCCLConfig`.
    topology_features:
        The frozen ``(num_edges, topology_dim)`` topology feature matrix.
    """

    def __init__(self, network, config, topology_features, rng=None):
        super().__init__()
        self.config = config
        self.network = network
        rng = rng or np.random.default_rng(config.seed)

        encoder = network.feature_encoder
        self.road_type_embedding = nn.Embedding(encoder.num_road_types, config.road_type_dim, rng=rng)
        self.lanes_embedding = nn.Embedding(encoder.num_lane_buckets, config.lanes_dim, rng=rng)
        self.one_way_embedding = nn.Embedding(encoder.num_one_way, config.one_way_dim, rng=rng)
        self.signals_embedding = nn.Embedding(encoder.num_signals, config.signals_dim, rng=rng)

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

    def _type_tables(self):
        """The four categorical embeddings, in the column order of the
        network's edge feature matrix and of Eq. 4."""
        return (self.road_type_embedding, self.lanes_embedding,
                self.one_way_embedding, self.signals_embedding)

    def _gather(self, edge_ids, out, keep):
        """Write the features of a padded int64 edge-id batch into ``out``.

        ``out`` is a ``(batch, max_len, spatial_dim)`` float64 array (or a
        view of one): the topology feature (Eq. 5), then the four type
        embeddings (Eq. 4).  ``keep`` is the ``(batch, max_len, 1)`` float
        array holding 1.0 on real steps and 0.0 on padded ones; every step is
        multiplied by it, which zeroes a padded step and leaves a real one's
        bits as they are.  Returns the ``(categories, keep)`` pair that the
        backward of :meth:`_node` needs.
        """
        num_edges = len(self._edge_categories)
        if edge_ids.size and edge_ids.max() >= num_edges:
            raise ValueError(f"edge id {int(edge_ids.max())} is out of range "
                             f"for a network with {num_edges} edges")
        # Every id is now in range or negative, and "clip" reads a negative
        # (padding) id as edge 0, whose features ``keep`` zeroes; it also
        # lets take write into a strided column block without a buffer.
        categories = self._edge_categories.take(edge_ids, axis=0, mode="clip")  # (B, T, 4)
        start = self.config.topology_dim
        self._topology_features.take(edge_ids, axis=0, out=out[..., :start], mode="clip")
        for column, table in enumerate(self._type_tables()):
            stop = start + table.embedding_dim
            table.weight.data.take(categories[..., column], axis=0,
                                   out=out[..., start:stop], mode="clip")
            start = stop
        out *= keep
        return categories, keep

    def _node(self, data, context, start=0):
        """``data`` as one autograd node whose parents are the four type
        tables' weights.

        ``data[..., start:]`` holds the features that :meth:`_gather` wrote
        and ``context`` is what it returned.  The backward scatters the
        type-embedding columns of the gradient (times ``keep``)
        into each weight with the engine's indexing scatter, so the weights'
        gradients are those of the Tensor-composed graph, byte for byte.
        """
        categories, keep = context
        weights = tuple(table.weight for table in self._type_tables())

        def backward(grad):
            type_grad = grad[..., start + self.config.topology_dim:] * keep
            column_start = 0
            for column, weight in enumerate(weights):
                column_stop = column_start + weight.shape[1]
                if weight.requires_grad:
                    weight._accumulate(scatter_sum(
                        weight.shape, categories[..., column],
                        type_grad[..., column_start:column_stop]))
                column_start = column_stop

        return weights[0]._make_result(data, weights, backward, "spatial")

    def forward(self, edge_id_batch):
        """Embed a padded batch of edge-id sequences (Eq. 6).

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
        Tensor of shape ``(batch, max_len, spatial_dim)``: one autograd node,
        computed in numpy, whose parents are the four type tables' weights.
        """
        edge_ids = np.asarray(edge_id_batch, dtype=np.int64)
        out = np.empty(edge_ids.shape + (self.output_dim,))
        keep = (edge_ids >= 0).astype(np.float64)[..., None]
        return self._node(out, self._gather(edge_ids, out, keep))
