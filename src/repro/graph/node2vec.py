"""Node2vec front-end: walks + skip-gram, for arbitrary graphs.

``Node2Vec.fit_temporal_graph`` and ``Node2Vec.fit_road_network`` are thin
adapters for the two graphs WSCCL embeds (paper Eq. 2 and Eq. 5).  Walks
come from :class:`~repro.graph.walks.RandomWalker`'s lockstep CSR engine and
embeddings from :class:`~repro.graph.skipgram.SkipGramTrainer`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .._memo import remember
from .skipgram import SkipGramTrainer
from .walks import RandomWalker, _neighbourhoods

__all__ = ["Node2Vec", "Node2VecConfig", "concat_endpoint_embeddings"]


class Node2VecConfig:
    """Hyper-parameters for one node2vec run.

    ``lr`` is the initial skip-gram learning rate; it decays linearly, as in
    word2vec.  ``seed`` must be a non-negative integer: a fit is a pure
    function of its config and graph.
    """

    def __init__(self, dim=128, walks_per_node=10, walk_length=20, window=5,
                 negatives=5, epochs=2, p=1.0, q=1.0, lr=0.025, seed=0):
        for name, value in (("dim", dim), ("walks_per_node", walks_per_node),
                            ("walk_length", walk_length), ("window", window),
                            ("negatives", negatives), ("epochs", epochs)):
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name, value in (("p", p), ("q", q), ("lr", lr)):
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and 0 < value < float("inf")):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.dim = dim
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.p = p
        self.q = q
        self.lr = lr
        self.seed = seed


class Node2Vec:
    """Fit node2vec embeddings for a graph given its adjacency."""

    def __init__(self, config=None):
        self.config = config or Node2VecConfig()
        self._embeddings = None

    # ------------------------------------------------------------------
    def fit(self, neighbors_fn, num_nodes):
        """Fit embeddings for a generic graph.

        The fit is a pure function of the config and the graph, so it runs
        once per process for each distinct input; every call returns its
        own copy of the embeddings.

        Parameters
        ----------
        neighbors_fn:
            Callable ``node -> sequence of neighbours``, called once per
            node.  Neighbour order matters: walks sample in that order.
            Every neighbour must be an integer in ``[0, num_nodes)``; the
            walker rejects any other with a ``ValueError``.
        num_nodes:
            Number of nodes in the graph, a positive integer.
        """
        if not (isinstance(num_nodes, numbers.Integral) and num_nodes >= 1):
            raise ValueError(f"num_nodes must be a positive integer, got {num_nodes!r}")
        # Checked before the memo key hashes it, so a bad neighbour raises
        # the walker's ValueError even when it is unhashable.
        adjacency = _neighbourhoods(neighbors_fn, num_nodes)
        cfg = self.config

        def train():
            walker = RandomWalker(adjacency.__getitem__, num_nodes, p=cfg.p, q=cfg.q,
                                  seed=cfg.seed)
            walks = walker.generate_walks(cfg.walks_per_node, cfg.walk_length)
            trainer = SkipGramTrainer(num_nodes=num_nodes, dim=cfg.dim, window=cfg.window,
                                      negatives=cfg.negatives, lr=cfg.lr, seed=cfg.seed)
            return trainer.train(walks, epochs=cfg.epochs)

        key = (tuple(sorted(vars(cfg).items())), num_nodes, adjacency)
        self._embeddings = remember(key, train).copy()
        return self._embeddings

    def fit_temporal_graph(self, temporal_graph):
        """Embeddings for the 2016-node temporal graph (paper Eq. 2)."""
        return self.fit(temporal_graph.neighbors, temporal_graph.num_nodes)

    def fit_road_network(self, network):
        """Embeddings for road-network nodes.

        The road network is directed; node2vec walks use the undirected
        neighbourhood (union of out- and in-neighbours), matching how the
        paper applies a generic graph embedding to the network topology.
        """
        def undirected_neighbors(node):
            neighbours = set()
            for edge in network.out_edges(node):
                neighbours.add(network.edge_endpoints(edge)[1])
            for edge in network.in_edges(node):
                neighbours.add(network.edge_endpoints(edge)[0])
            return sorted(neighbours)

        return self.fit(undirected_neighbors, network.num_nodes)

    # ------------------------------------------------------------------
    @property
    def embeddings(self):
        """Node embedding matrix from the last :meth:`fit` call."""
        if self._embeddings is None:
            raise RuntimeError("Node2Vec has not been fitted")
        return self._embeddings

    def edge_topology_embeddings(self, network):
        """Per-edge topology feature: concatenation of endpoint embeddings (Eq. 5)."""
        return concat_endpoint_embeddings(network, self.embeddings)


def concat_endpoint_embeddings(network, node_embeddings):
    """Per-edge rows ``[source embedding, target embedding]``, shape (E, 2 * dim)."""
    sources, targets = network.edge_endpoint_matrix().T
    return np.concatenate((node_embeddings[sources], node_embeddings[targets]), axis=1)
