"""Biased second-order random walks (node2vec, Grover & Leskovec 2016).

WSCCL uses node2vec twice: on the temporal graph (to obtain temporal
embeddings of departure-time slots) and on the road network (to obtain
topology-aware node embeddings whose concatenation forms the edge topology
feature, paper Eq. 5).

:meth:`RandomWalker.generate_walks` queries ``neighbors_fn`` once per node
to build a CSR adjacency, then advances *all* walks of a pass in lockstep:
each batched step gathers the whole frontier's candidate neighbourhoods from
the CSR arrays, computes the p/q bias weights with a sorted-membership check
of candidates against the previous-step neighbourhoods, and samples every
walk's next node with one cumulative-sum/searchsorted draw.

Single walks (:meth:`RandomWalker.walk_from`) use the original per-step
loop, :meth:`RandomWalker._reference_walk_from`.  It consumes the RNG
differently, so individual walks differ for the same seed; the
*distribution* of walks is the same (pinned by the Hypothesis suites in
``tests/graph/test_pretraining_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomWalker"]

class RandomWalker:
    """Generate node2vec walks over a graph given by an adjacency callable.

    Parameters
    ----------
    neighbors_fn:
        Callable ``node -> sequence of neighbour nodes``.
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
        # CSR adjacency, built lazily on the first walk batch.
        self._indptr = None
        self._indices = None
        self._edge_keys = None

    # ------------------------------------------------------------------
    # CSR adjacency
    # ------------------------------------------------------------------
    def _ensure_csr(self):
        """Materialise the adjacency once: ``neighbors_fn`` is never called
        again afterwards, however many walks are generated."""
        if self._indptr is not None:
            return
        chunks = []
        counts = np.zeros(self.num_nodes + 1, dtype=np.int64)
        for node in range(self.num_nodes):
            neighbours = np.asarray(list(self.neighbors_fn(node)), dtype=np.int64)
            chunks.append(neighbours)
            counts[node + 1] = neighbours.size
        self._indptr = np.cumsum(counts)
        self._indices = (np.concatenate(chunks) if chunks
                         else np.zeros(0, dtype=np.int64))
        # Sorted (source, target) keys: membership of a candidate c in the
        # previous node's neighbourhood is one searchsorted lookup.
        sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                            np.diff(self._indptr))
        self._edge_keys = np.sort(sources * self.num_nodes + self._indices)

    # ------------------------------------------------------------------
    # Single walks (per-step loop)
    # ------------------------------------------------------------------
    def walk_from(self, start, length):
        """One biased walk of at most ``length`` nodes starting at ``start``.

        Single walks always use the per-step loop — there is no frontier to
        batch over.
        """
        return self._reference_walk_from(start, length)

    def _reference_walk_from(self, start, length):
        walk = [start]
        neighbors = list(self.neighbors_fn(start))
        if not neighbors:
            return walk
        walk.append(int(self.rng.choice(neighbors)))
        while len(walk) < length:
            current = walk[-1]
            previous = walk[-2]
            neighbors = list(self.neighbors_fn(current))
            if not neighbors:
                break
            weights = np.empty(len(neighbors))
            previous_neighbors = set(self.neighbors_fn(previous))
            for index, candidate in enumerate(neighbors):
                if candidate == previous:
                    weights[index] = 1.0 / self.p
                elif candidate in previous_neighbors:
                    weights[index] = 1.0
                else:
                    weights[index] = 1.0 / self.q
            weights /= weights.sum()
            walk.append(int(self.rng.choice(neighbors, p=weights)))
        return walk

    # ------------------------------------------------------------------
    # Lockstep walk batches
    # ------------------------------------------------------------------
    def _batched_walks(self, starts, length):
        """Advance one walk per entry of ``starts`` simultaneously."""
        self._ensure_csr()
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
