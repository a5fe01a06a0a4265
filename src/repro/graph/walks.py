"""Biased second-order random walks (node2vec, Grover & Leskovec 2016).

WSCCL uses node2vec twice: on the temporal graph (to obtain temporal
embeddings of departure-time slots) and on the road network (to obtain
topology-aware node embeddings whose concatenation forms the edge topology
feature, paper Eq. 5).

:class:`RandomWalker` queries ``neighbors_fn`` once per node, at
construction, to build a CSR adjacency; a neighbour that is not an integer
node id raises a ``ValueError`` there.  :meth:`RandomWalker.generate_walks`
then advances *all* walks of a pass in lockstep: each batched step gathers
the whole frontier's candidate neighbourhoods from the CSR arrays, computes
the p/q bias weights with a sorted-membership check of candidates against
the previous-step neighbourhoods, and samples every walk's next node with one
cumulative-sum/searchsorted draw.

The per-step single-walk loop in ``tests/graph/reference_walks.py`` consumes
the RNG differently, so individual walks differ for the same seed; the
*distribution* of walks is the same (pinned by the Hypothesis suites in
``tests/graph/test_pretraining_equivalence.py``).
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["RandomWalker"]


def _neighbourhoods(neighbors_fn, num_nodes):
    """Every node's neighbours as a tuple of tuples, ``neighbors_fn`` called
    once per node; a neighbour that is not an integer in ``[0, num_nodes)``
    raises a ``ValueError`` naming it."""
    neighbourhoods = []
    for node in range(num_nodes):
        neighbours = tuple(neighbors_fn(node))
        for neighbour in neighbours:
            if not (isinstance(neighbour, numbers.Integral)
                    and 0 <= neighbour < num_nodes):
                raise ValueError(f"node {node} has neighbour {neighbour!r}, "
                                 f"not an integer in [0, {num_nodes})")
        neighbourhoods.append(neighbours)
    return tuple(neighbourhoods)


class RandomWalker:
    """Generate node2vec walks over a graph given by an adjacency callable.

    Parameters
    ----------
    neighbors_fn:
        Callable ``node -> sequence of neighbour nodes``, called once per
        node here.  Every neighbour must be an integer in
        ``[0, num_nodes)``; otherwise a ``ValueError`` names the first bad
        one.
    num_nodes:
        Number of nodes; walks start from every node in turn.
    p:
        Return parameter.  Larger p discourages immediately revisiting the
        previous node.
    q:
        In-out parameter.  q > 1 keeps walks local (BFS-like), q < 1 pushes
        them outward (DFS-like).
    """

    def __init__(self, neighbors_fn, num_nodes, p=1.0, q=1.0, seed=0):
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        self.neighbors_fn = neighbors_fn
        self.num_nodes = num_nodes
        self.p = p
        self.q = q
        self.rng = np.random.default_rng(seed)
        # CSR adjacency: neighbors_fn is never called again afterwards,
        # however many walks are generated.
        neighbourhoods = _neighbourhoods(neighbors_fn, num_nodes)
        degrees = np.array([len(n) for n in neighbourhoods], dtype=np.int64)
        self._indptr = np.concatenate(([0], np.cumsum(degrees)))
        self._indices = np.array([n for ns in neighbourhoods for n in ns],
                                 dtype=np.int64)
        # Sorted (source, target) keys: membership of a candidate c in the
        # previous node's neighbourhood is one searchsorted lookup.
        sources = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        self._edge_keys = np.sort(sources * num_nodes + self._indices)

    # ------------------------------------------------------------------
    # Lockstep walk batches
    # ------------------------------------------------------------------
    def _batched_walks(self, starts, length):
        """Advance one walk per entry of ``starts`` simultaneously."""
        indptr, indices = self._indptr, self._indices
        degrees = np.diff(indptr)
        starts = np.asarray(starts, dtype=np.int64)
        num_walks = starts.size

        # Width 2 minimum: like the reference loop, the uniform first step is
        # taken whenever the start has neighbours, even for length < 2.
        walks = np.full((num_walks, max(length, 2)), -1, dtype=np.int64)
        walks[:, 0] = starts
        lengths = np.ones(num_walks, dtype=np.int64)
        if num_walks == 0:
            return []

        # First step: uniform choice among the start's neighbours.
        active = np.flatnonzero(degrees[starts] > 0)
        if active.size:
            first_degrees = degrees[starts[active]]
            offsets = (self.rng.random(active.size) * first_degrees).astype(np.int64)
            offsets = np.minimum(offsets, first_degrees - 1)
            walks[active, 1] = indices[indptr[starts[active]] + offsets]
            lengths[active] = 2

        inv_p = 1.0 / self.p
        inv_q = 1.0 / self.q
        for step in range(2, length):
            active = active[degrees[walks[active, step - 1]] > 0]
            if active.size == 0:
                break
            current = walks[active, step - 1]
            previous = walks[active, step - 2]

            # Ragged frontier neighbourhoods, flattened.
            counts = degrees[current]
            total = int(counts.sum())
            segment_ends = np.cumsum(counts)
            segment_starts = segment_ends - counts
            within = np.arange(total) - np.repeat(segment_starts, counts)
            candidates = indices[np.repeat(indptr[current], counts) + within]
            previous_repeated = np.repeat(previous, counts)

            # Second-order bias: 1/p back to the previous node, 1 for common
            # neighbours of (previous, current), 1/q otherwise.  Membership is
            # a sorted lookup into the global (source, target) key array.
            keys = previous_repeated * self.num_nodes + candidates
            positions = np.searchsorted(self._edge_keys, keys)
            member = np.zeros(total, dtype=bool)
            in_range = positions < self._edge_keys.size
            member[in_range] = self._edge_keys[positions[in_range]] == keys[in_range]
            weights = np.where(candidates == previous_repeated, inv_p,
                               np.where(member, 1.0, inv_q))

            # One categorical draw per walk over its ragged weight segment.
            cumulative = np.cumsum(weights)
            before = cumulative[segment_starts] - weights[segment_starts]
            totals = cumulative[segment_ends - 1] - before
            targets = before + self.rng.random(active.size) * totals
            chosen = np.searchsorted(cumulative, targets, side="right")
            chosen = np.clip(chosen, segment_starts, segment_ends - 1)

            walks[active, step] = candidates[chosen]
            lengths[active] = step + 1
        return [walks[i, :lengths[i]].tolist() for i in range(num_walks)]

    # ------------------------------------------------------------------
    def generate_walks(self, walks_per_node, walk_length):
        """All walks: ``walks_per_node`` starts from each node, shuffled order."""
        walks = []
        order = np.arange(self.num_nodes)
        for _ in range(walks_per_node):
            self.rng.shuffle(order)
            walks.extend(self._batched_walks(order, walk_length))
        return walks
