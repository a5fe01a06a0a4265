"""HMM map matching (Newson & Krumm, SIGSPATIAL 2009).

The paper's data pipeline map-matches raw GPS trajectories onto the road
network before extracting paths.  This module implements the standard hidden
Markov model formulation: candidate edges per GPS point weighted by a
Gaussian emission on the perpendicular distance, transitions weighted by how
well the *driving* distance between the candidates' projection points agrees
with the great-circle distance between fixes, decoded with Viterbi.  When a
step has no reachable transition at all, decoding restarts from that fix
(Newson & Krumm's HMM break) instead of stitching disconnected garbage.

Edge segments, lengths and endpoints are read from the network's
whole-network arrays (:meth:`~repro.roadnet.network.RoadNetwork.edge_endpoint_matrix`,
``node_coordinate_matrix`` and ``edge_lengths``).  Candidate generation is
one batched segment-distance computation over the ``(fix, edge)`` pairs whose
segment bounding box, grown by ``candidate_radius`` plus a metre, holds the
fix, keeping the closest six edges per fix; transition pricing reuses a
resumable multi-target Dijkstra per unique source node
(:class:`~repro.roadnet.search.DijkstraCache`, shared across steps and across
a :meth:`HMMMapMatcher.match_batch`), and decoding is matrix-form Viterbi
(one ``(K, K)`` transition matrix and one vectorized max per step).

The per-point/per-pair loops in ``tests/trajectory/reference_mapmatching.py``
— a full segment-distance scan per fix and one fresh Dijkstra per candidate
pair per Viterbi step — must decode bit-identical paths.
"""

from __future__ import annotations

import numpy as np

from .._checks import check_finite_array, check_real
from ..roadnet.search import DijkstraCache, shortest_path

__all__ = ["HMMMapMatcher"]

#: Cap on candidate edges per fix (closest first), bounding Viterbi cost.
_MAX_CANDIDATES = 6


def _project_points_onto_segments(points, starts, ends):
    """Distance and projection fraction from points to segments, row-wise.

    ``points`` broadcasts against ``starts``/``ends``: one point against all
    segments, or row-paired arrays.  The batched candidate search and the
    full scan both go through this single helper, so candidate
    distances are bit-identical by construction.
    """
    direction = ends - starts
    length_sq = np.maximum((direction ** 2).sum(axis=1), 1e-9)
    t = np.clip(((points - starts) * direction).sum(axis=1) / length_sq, 0.0, 1.0)
    projection = starts + t[:, None] * direction
    return np.sqrt(((projection - points) ** 2).sum(axis=1)), t


class HMMMapMatcher:
    """Match GPS trajectories onto a road network.

    Parameters
    ----------
    network:
        The :class:`~repro.roadnet.network.RoadNetwork` to match onto.
    emission_sigma:
        Standard deviation (metres) of GPS noise for the emission model.
    transition_beta:
        Scale (metres) of the exponential transition model.
    candidate_radius:
        Only edges whose segment lies within this distance (metres) of a fix
        are considered as candidates.

    All three must be positive and finite.
    """

    def __init__(self, network, emission_sigma=15.0, transition_beta=30.0,
                 candidate_radius=120.0):
        self.network = network
        self.emission_sigma = check_real("emission_sigma", emission_sigma, above=0)
        self.transition_beta = check_real("transition_beta", transition_beta, above=0)
        self.candidate_radius = check_real("candidate_radius", candidate_radius, above=0)
        self._edge_sources, self._edge_targets = network.edge_endpoint_matrix().T
        coordinates = network.node_coordinate_matrix()
        self._segments = coordinates[self._edge_sources], coordinates[self._edge_targets]
        self._lengths = network.edge_lengths()
        # Segment bounding boxes grown by the radius and a 1 m margin against
        # rounding, one row per axis: the candidate prefilter.
        grow = candidate_radius + 1.0
        self._box_lows = (np.minimum(*self._segments) - grow).T.copy()
        self._box_highs = (np.maximum(*self._segments) + grow).T.copy()
        self._dijkstra = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def dijkstra_cache(self):
        """The lazily built transition-distance cache (length cost)."""
        if self._dijkstra is None:
            self._dijkstra = DijkstraCache(
                self.network, edge_cost=self.network.edge_length)
        return self._dijkstra

    def _segment_distances(self, point):
        """Distance and projection fraction from ``point`` to every segment."""
        starts, ends = self._segments
        point = np.asarray(point, dtype=np.float64)
        return _project_points_onto_segments(point, starts, ends)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _candidate_sets(self, positions):
        """Per-fix candidates via one batched, box-prefiltered distance pass.

        A fix within ``candidate_radius`` of a segment lies inside the
        segment's grown bounding box, so the exact distances computed on the
        pairs the boxes keep select exactly the candidates of the full scan.
        """
        radius = self.candidate_radius
        (low_x, low_y), (high_x, high_y) = self._box_lows, self._box_highs
        x, y = positions[:, :1], positions[:, 1:]
        inside = (x >= low_x) & (x <= high_x) & (y >= low_y) & (y <= high_y)
        rows, edges = np.nonzero(inside)
        starts, ends = self._segments
        distances, fractions = _project_points_onto_segments(
            positions[rows], starts[edges], ends[edges])
        within = distances <= radius
        rows, edges = rows[within], edges[within]
        distances, fractions = distances[within], fractions[within]
        emissions = self._emission_log_prob(distances)
        # Pairs come in ascending edge ids per fix, so the stable sort ties
        # exactly like a stable argsort over the full distance vector.
        order = np.lexsort((distances, rows))
        bounds = np.searchsorted(rows[order], np.arange(len(positions) + 1))

        candidate_sets, fraction_sets, emission_sets = [], [], []
        for index, (low, high) in enumerate(zip(bounds[:-1], bounds[1:])):
            if low < high:
                chosen = order[low:min(high, low + _MAX_CANDIDATES)]
                candidate_sets.append(edges[chosen])
                fraction_sets.append(fractions[chosen])
                emission_sets.append(emissions[chosen])
            else:
                # Nothing within the radius: fall back to the closest edge
                # (the lowest id among ties) so matching never fails.
                all_distances, all_fractions = self._segment_distances(
                    positions[index])
                closest = np.array([np.argmin(all_distances)], dtype=np.int64)
                candidate_sets.append(closest)
                fraction_sets.append(all_fractions[closest])
                emission_sets.append(
                    self._emission_log_prob(all_distances[closest]))
        return candidate_sets, fraction_sets, emission_sets

    # ------------------------------------------------------------------
    # Emission and transition models
    # ------------------------------------------------------------------
    def _emission_log_prob(self, distance):
        # np.square, not ** 2: a numpy scalar's ** 2 goes through pow(),
        # which can differ from x * x by an ulp, so a scalar and an array
        # call would disagree.
        sigma = self.emission_sigma
        return -0.5 * np.square(distance / sigma) - np.log(sigma * np.sqrt(2 * np.pi))

    def _transitions(self, edges_a, fractions_a, edges_b, fractions_b,
                     straight_distance):
        """(K_prev, K_cur) transition log-prob matrix for one Viterbi step.

        The network distance is the driving distance between the two fixes'
        projection points: the rest of ``edge_a`` past its match point, the
        shortest path between the edges, and ``edge_b`` up to its match
        point.  A forward crawl along one edge is scored by the distance
        actually driven, not as stationary.

        Between-edge driving distances come from the Dijkstra cache: one
        resumable multi-target run per unique previous-candidate head node,
        shared across steps and trajectories.
        """
        lengths_a = self._lengths[edges_a]
        lengths_b = self._lengths[edges_b]
        sources = self._edge_targets[edges_a].tolist()
        targets = self._edge_sources[edges_b].tolist()
        # Candidate sets are tiny (<= _MAX_CANDIDATES): one cache query per
        # unique source over the unique targets, then a plain gather.
        unique_targets = list(dict.fromkeys(targets))
        cache = self.dijkstra_cache
        distances_from = {source: cache.distances(source, unique_targets)
                          for source in dict.fromkeys(sources)}
        between = np.array([[distances_from[source][target] for target in targets]
                            for source in sources])

        network_distance = (1.0 - fractions_a) * lengths_a
        network_distance = network_distance[:, None] + between
        network_distance = network_distance + (fractions_b * lengths_b)[None, :]

        same_edge = edges_a[:, None] == edges_b[None, :]
        if same_edge.any():
            forward = fractions_b[None, :] >= fractions_a[:, None]
            crawl_mask = same_edge & forward
            if crawl_mask.any():
                crawl = ((fractions_b[None, :] - fractions_a[:, None])
                         * lengths_a[:, None])
                network_distance = np.where(crawl_mask, crawl, network_distance)
        return -np.abs(network_distance - straight_distance) / self.transition_beta

    # ------------------------------------------------------------------
    # Viterbi decoding
    # ------------------------------------------------------------------
    def _decode(self, candidate_sets, fraction_sets, emission_sets, straights):
        """Matrix-form Viterbi: one (K, K) transition matrix per step."""
        scores = [emission_sets[0]]
        back_pointers = [np.zeros(len(candidate_sets[0]), dtype=np.int64)]
        break_steps = set()
        for step in range(1, len(candidate_sets)):
            transitions = self._transitions(
                candidate_sets[step - 1], fraction_sets[step - 1],
                candidate_sets[step], fraction_sets[step],
                straights[step - 1])
            values = scores[-1][:, None] + transitions
            best_values = values.max(axis=0)
            if not np.any(best_values > -np.inf):
                # HMM break: no candidate is reachable from the previous
                # fix.  Restart decoding from this fix.
                break_steps.add(step)
                scores.append(emission_sets[step])
                back_pointers.append(
                    np.zeros(len(candidate_sets[step]), dtype=np.int64))
            else:
                scores.append(best_values + emission_sets[step])
                back_pointers.append(values.argmax(axis=0).astype(np.int64))
        return scores, back_pointers, break_steps

    def _backtrack(self, candidate_sets, scores, back_pointers, break_steps):
        """Matched edge per fix, restarting the chain at every HMM break."""
        num_steps = len(candidate_sets)
        matched = [0] * num_steps
        index = int(np.argmax(scores[-1]))
        for step in range(num_steps - 1, -1, -1):
            matched[step] = int(candidate_sets[step][index])
            if step == 0:
                break
            if step in break_steps:
                # The previous segment ends at step - 1; decode its best
                # terminal candidate independently.
                index = int(np.argmax(scores[step - 1]))
            else:
                index = int(back_pointers[step][index])
        return matched

    def _match_edges(self, trajectory):
        """Viterbi-matched edge per fix; decoding restarts at each HMM break."""
        positions = trajectory.positions()
        if len(positions) == 0:
            return []
        check_finite_array("GPS fix positions", positions)
        candidate_sets, fraction_sets, emission_sets = self._candidate_sets(positions)
        straights = np.sqrt(
            ((positions[1:] - positions[:-1]) ** 2).sum(axis=1))
        scores, back_pointers, break_steps = self._decode(
            candidate_sets, fraction_sets, emission_sets, straights)
        return self._backtrack(candidate_sets, scores, back_pointers, break_steps)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def match(self, trajectory):
        """Return the most likely edge path for a :class:`GPSTrajectory`.

        The Viterbi-decoded candidate sequence is stitched into a connected
        path by inserting shortest-path segments between consecutive matched
        edges; matched edges that cannot be connected (e.g. after an HMM
        break onto a different component) are dropped, so the result is
        always a connected path.
        """
        return self._stitch(self._match_edges(trajectory))

    def match_batch(self, trajectories):
        """Match many trajectories, sharing the transition-distance cache.

        Network distances depend only on the (static) edge lengths, so the
        Dijkstra cache stays valid across trajectories: each unique candidate
        head node is explored once for the whole batch.
        """
        return [self.match(trajectory) for trajectory in trajectories]

    def _stitch(self, matched_edges):
        """Turn the per-point edge sequence into a connected, de-duplicated path."""
        path = []
        for edge in matched_edges:
            if path and path[-1] == edge:
                continue
            if not path:
                path.append(edge)
                continue
            previous_target = self.network.edge_endpoints(path[-1])[1]
            current_source = self.network.edge_endpoints(edge)[0]
            if previous_target != current_source:
                connector = shortest_path(
                    self.network, previous_target, current_source,
                    edge_cost=self.network.edge_length,
                )
                if connector is None:
                    # Unreachable: keep the longest consistent prefix.
                    continue
                for connecting_edge in connector:
                    if not path or path[-1] != connecting_edge:
                        path.append(connecting_edge)
            if not path or path[-1] != edge:
                path.append(edge)
        return path
