"""Uniform random walks: node2vec (Grover & Leskovec 2016) at p = q = 1.

WSCCL uses node2vec twice: on the temporal graph (to obtain temporal
embeddings of departure-time slots) and on the road network (to obtain
topology-aware node embeddings whose concatenation forms the edge topology
feature, paper Eq. 5).  Every fit runs at return parameter p = 1 and in-out
parameter q = 1, where node2vec's second-order walk is DeepWalk's uniform
walk: each step moves to a neighbour of the current node drawn uniformly.

:class:`RandomWalker` queries ``neighbors_fn`` once per node, at
construction, to build a CSR adjacency; a neighbour that is not an integer
node id raises a ``ValueError`` there.  :meth:`RandomWalker.generate_walks`
then advances *all* walks of a pass in lockstep: each step draws one uniform
``u`` per walk that has not reached a dead end and takes neighbour
``min(floor(u * degree), degree - 1)`` of its current node from the CSR
arrays.

The per-walk loop in ``tests/graph/reference_walks.py`` consumes the RNG
differently, so individual walks differ for the same seed; the
*distribution* of walks is the same (pinned by the Hypothesis suites in
``tests/graph/test_pretraining_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from .._checks import check_integer

__all__ = ["RandomWalker"]


def _neighbourhoods(neighbors_fn, num_nodes):
    """Every node's neighbours as a tuple of tuples, ``neighbors_fn`` called
    once per node; a neighbour that is not an integer in ``[0, num_nodes)``
    raises a ``ValueError`` naming its node."""
    neighbourhoods = []
    for node in range(num_nodes):
        neighbours = tuple(neighbors_fn(node))
        for neighbour in neighbours:
            check_integer(f"neighbour of node {node}", neighbour, low=0, high=num_nodes)
        neighbourhoods.append(neighbours)
    return tuple(neighbourhoods)


class RandomWalker:
    """Generate uniform random walks over a graph given by an adjacency callable.

    Parameters
    ----------
    neighbors_fn:
        Callable ``node -> sequence of neighbour nodes``, called once per
        node here.  Every neighbour must be an integer in
        ``[0, num_nodes)``; otherwise a ``ValueError`` names the first bad
        one.
    num_nodes:
        Number of nodes; walks start from every node in turn.
    """

    def __init__(self, neighbors_fn, num_nodes, seed=0):
        self.neighbors_fn = neighbors_fn
        self.num_nodes = num_nodes
        self.rng = np.random.default_rng(seed)
        # CSR adjacency: neighbors_fn is never called again afterwards,
        # however many walks are generated.
        neighbourhoods = _neighbourhoods(neighbors_fn, num_nodes)
        degrees = np.array([len(n) for n in neighbourhoods], dtype=np.int64)
        self._indptr = np.concatenate(([0], np.cumsum(degrees)))
        self._indices = np.array([n for ns in neighbourhoods for n in ns],
                                 dtype=np.int64)

    # ------------------------------------------------------------------
    # Lockstep walk batches
    # ------------------------------------------------------------------
    def _batched_walks(self, starts, length):
        """Advance one walk per entry of ``starts`` simultaneously."""
        indptr, indices = self._indptr, self._indices
        degrees = np.diff(indptr)
        starts = np.asarray(starts, dtype=np.int64)
        num_walks = starts.size
        if num_walks == 0:
            return []

        # Width 2 minimum: like the reference loop, the first step is taken
        # whenever the start has neighbours, even for length < 2.
        width = max(length, 2)
        walks = np.full((num_walks, width), -1, dtype=np.int64)
        walks[:, 0] = starts
        lengths = np.ones(num_walks, dtype=np.int64)
        active = np.arange(num_walks)
        for step in range(1, width):
            active = active[degrees[walks[active, step - 1]] > 0]
            if active.size == 0:
                break
            current = walks[active, step - 1]
            counts = degrees[current]
            offsets = (self.rng.random(active.size) * counts).astype(np.int64)
            walks[active, step] = indices[indptr[current] + np.minimum(offsets, counts - 1)]
            lengths[active] = step + 1
        return [walks[i, :lengths[i]].tolist() for i in range(num_walks)]

    # ------------------------------------------------------------------
    def generate_walks(self, walks_per_node, walk_length):
        """All walks: ``walks_per_node`` starts from each node, shuffled order.

        Both counts must be positive integers.  A walk whose start has
        neighbours has at least two nodes; one ends before ``walk_length``
        nodes only at a node with no neighbours.
        """
        check_integer("walks_per_node", walks_per_node, low=1)
        check_integer("walk_length", walk_length, low=1)
        walks = []
        order = np.arange(self.num_nodes)
        for _ in range(walks_per_node):
            self.rng.shuffle(order)
            walks.extend(self._batched_walks(order, walk_length))
        return walks
