"""The frozen node2vec features and the factory of WSC models.

This is the one place where a :class:`~repro.core.config.WSCCLConfig`
becomes node2vec features: :func:`edge_topology_features` (Eq. 5) and
:func:`slot_embeddings` (Eq. 2).  The layers, encoders and baselines only
take their arrays.  :meth:`SharedResources.new_encoder` builds a
:class:`~repro.core.encoder.TemporalPathEncoder` over one network's pair, so
the curriculum stage, the ablations, model loading and PathRank create many
encoders without recomputing walks.
"""

from __future__ import annotations

import numpy as np

from ..graph import Node2Vec, Node2VecConfig, concat_endpoint_embeddings
from ..temporal.temporal_graph import build_temporal_graph
from .config import WSCCLConfig
from .encoder import TemporalPathEncoder
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding

__all__ = ["SharedResources", "edge_topology_features", "slot_embeddings"]


def _node2vec(config, dim):
    """The seeded node2vec run of ``config`` with ``dim``-dimensional nodes."""
    return Node2Vec(Node2VecConfig(
        dim=dim, walks_per_node=config.node2vec_walks, walk_length=config.node2vec_walk_length,
        window=config.node2vec_window, epochs=config.node2vec_epochs, seed=config.seed))


def edge_topology_features(network, config):
    """Each edge's two endpoint node2vec embeddings (Eq. 5), concatenated:
    shape ``(num_edges, topology_dim)``."""
    node_embeddings = _node2vec(config, config.topology_dim // 2).fit_road_network(network)
    return concat_endpoint_embeddings(network, node_embeddings)


def slot_embeddings(config):
    """The node2vec embedding of each ``(day, slot)`` node of the temporal
    graph (Eq. 2): shape ``(7 * slots_per_day, temporal_dim)``."""
    graph = build_temporal_graph(slots_per_day=config.slots_per_day)
    return _node2vec(config, config.temporal_dim).fit_temporal_graph(graph)


class SharedResources:
    """Frozen node2vec features shared between WSC models on one network.

    Experts, ablation variants and the final model can all reuse one
    instance of this class.  The two node2vec fits behind it run once per
    process for each network and config (``Node2Vec.fit`` is memoized), so a
    second instance copies the stored embeddings instead of refitting.  Pre-computed
    arrays can be passed in directly (used when loading a persisted model)
    to skip node2vec entirely.
    """

    def __init__(self, network, config=None, topology_features=None,
                 temporal_embeddings=None):
        self.network = network
        self.config = config or WSCCLConfig()
        if topology_features is None:
            topology_features = edge_topology_features(network, self.config)
        if temporal_embeddings is None:
            temporal_embeddings = slot_embeddings(self.config)
        self._topology_features = np.asarray(topology_features, dtype=np.float64)
        self._temporal_embeddings = np.asarray(temporal_embeddings, dtype=np.float64)

    @property
    def topology_features(self):
        return self._topology_features

    @property
    def temporal_embeddings(self):
        return self._temporal_embeddings

    def new_spatial_embedding(self, rng=None):
        """A fresh trainable spatial embedding reusing the frozen topology."""
        return SpatialEmbedding(self.network, self.config, self.topology_features, rng=rng)

    def new_temporal_embedding(self):
        """A temporal embedding module reusing the frozen slot embeddings."""
        return TemporalEmbedding(self.config, self.temporal_embeddings)

    def new_encoder(self, seed=None, use_temporal=True):
        """A fresh :class:`~repro.core.encoder.TemporalPathEncoder` over the
        frozen features.

        One generator seeded with ``seed`` (default: the config's) draws the
        spatial embedding's weights, then the LSTM's.  ``use_temporal=False``
        gives the WSCCL-NT ablation (Table VIII).
        """
        rng = np.random.default_rng(self.config.seed if seed is None else seed)
        return TemporalPathEncoder(
            self.config, self.new_spatial_embedding(rng=rng),
            self.new_temporal_embedding(), rng, use_temporal=use_temporal,
        )
