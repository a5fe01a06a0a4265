"""HMM map matching (Newson & Krumm, SIGSPATIAL 2009).

The paper's data pipeline map-matches raw GPS trajectories onto the road
network before extracting paths.  This module implements the standard hidden
Markov model formulation: candidate edges per GPS point weighted by a
Gaussian emission on the perpendicular distance, transitions weighted by how
well the *driving* distance between the candidates' projection points agrees
with the great-circle distance between fixes, decoded with Viterbi.  When a
step has no reachable transition at all, decoding restarts from that fix
(Newson & Krumm's HMM break) instead of stitching disconnected garbage.

Candidate generation is one batched segment-distance computation over
grid-pruned ``(fix, edge)`` pairs
(:class:`~repro.roadnet.spatial_index.SegmentGridIndex`), transition pricing
reuses a resumable multi-target Dijkstra per unique source node
(:class:`~repro.roadnet.search.DijkstraCache`, shared across steps and across
a :meth:`HMMMapMatcher.match_batch`), and decoding is matrix-form Viterbi
(one ``(K, K)`` transition matrix and one vectorized max per step).

The original per-point/per-pair loops — a full segment-distance scan per fix
and one fresh Dijkstra per candidate pair per Viterbi step — are kept as the
``_reference_*`` methods; the test suites check that they decode
bit-identical paths.
"""

from __future__ import annotations

import numpy as np

from ..roadnet.search import DijkstraCache, shortest_path
from ..roadnet.spatial_index import SegmentGridIndex

__all__ = ["HMMMapMatcher"]


def _project_points_onto_segments(points, starts, ends):
    """Distance and projection fraction from points to segments, row-wise.

    ``points`` broadcasts against ``starts``/``ends``: one point against all
    segments, or row-paired arrays.  The batched candidate search and the
    full-scan loop both go through this single helper, so candidate
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
        Only edges whose segment lies within this distance of a fix are
        considered as candidates.
    max_candidates:
        Cap on candidates per point (closest first), bounding Viterbi cost.
    grid_cell_size:
        Cell size (metres) of the candidate-generation spatial index;
        defaults to ``candidate_radius``.
    cache_sources:
        Capacity of the LRU Dijkstra cache used for transition pricing.
    """

    def __init__(self, network, emission_sigma=15.0, transition_beta=30.0,
                 candidate_radius=120.0, max_candidates=6,
                 grid_cell_size=None, cache_sources=4096):
        if emission_sigma <= 0 or transition_beta <= 0:
            raise ValueError("emission_sigma and transition_beta must be positive")
        self.network = network
        self.emission_sigma = emission_sigma
        self.transition_beta = transition_beta
        self.candidate_radius = candidate_radius
        self.max_candidates = max_candidates
        self.grid_cell_size = float(candidate_radius if grid_cell_size is None
                                    else grid_cell_size)
        if self.grid_cell_size <= 0:
            raise ValueError("grid_cell_size must be positive")
        self.cache_sources = cache_sources
        self._segments = self._build_segment_index()
        self._lengths = np.array([network.edge_length(e)
                                  for e in range(network.num_edges)])
        endpoints = np.array([network.edge_endpoints(e)
                              for e in range(network.num_edges)],
                             dtype=np.int64).reshape(network.num_edges, 2)
        self._edge_sources = endpoints[:, 0]
        self._edge_targets = endpoints[:, 1]
        self._grid = None
        self._dijkstra = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _build_segment_index(self):
        """Pre-compute segment endpoints for distance queries."""
        starts = np.zeros((self.network.num_edges, 2))
        ends = np.zeros((self.network.num_edges, 2))
        for edge in range(self.network.num_edges):
            source, target = self.network.edge_endpoints(edge)
            starts[edge] = self.network.node_coordinates(source)
            ends[edge] = self.network.node_coordinates(target)
        return starts, ends

    @property
    def grid_index(self):
        """The lazily built :class:`SegmentGridIndex` over edge segments."""
        if self._grid is None:
            starts, ends = self._segments
            self._grid = SegmentGridIndex(starts, ends, self.grid_cell_size)
        return self._grid

    @property
    def dijkstra_cache(self):
        """The lazily built LRU transition-distance cache (length cost)."""
        if self._dijkstra is None:
            self._dijkstra = DijkstraCache(
                self.network, edge_cost=self.network.edge_length,
                max_sources=self.cache_sources)
        return self._dijkstra

    def _segment_distances(self, point):
        """Distance and projection fraction from ``point`` to every segment."""
        starts, ends = self._segments
        point = np.asarray(point, dtype=np.float64)
        return _project_points_onto_segments(point, starts, ends)

    def _point_to_edges_distance(self, point):
        """Perpendicular distance from ``point`` to every edge segment."""
        return self._segment_distances(point)[0]

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _reference_candidates(self, point):
        """Closest candidate edges within the search radius (full scan).

        Returns ``(edges, distances, fractions)`` arrays for the selected
        candidates; the projection fraction locates each fix's match point
        along its candidate edge for the transition model.
        """
        distances, fractions = self._segment_distances(point)
        order = np.argsort(distances, kind="stable")
        selected = [int(e) for e in order[:self.max_candidates]
                    if distances[e] <= self.candidate_radius]
        if not selected:
            # Fall back to the single closest edge so matching never fails.
            selected = [int(order[0])]
        edges = np.array(selected, dtype=np.int64)
        return edges, distances[edges], fractions[edges]

    def _reference_candidate_sets(self, positions):
        """Per-fix candidates via the original full-scan loop."""
        candidate_sets, fraction_sets, emission_sets = [], [], []
        for point in positions:
            edges, distances, fractions = self._reference_candidates(point)
            candidate_sets.append(edges)
            fraction_sets.append(fractions)
            emission_sets.append(
                np.array([self._emission_log_prob(d) for d in distances])
            )
        return candidate_sets, fraction_sets, emission_sets

    def _vectorized_candidate_sets(self, positions):
        """Per-fix candidates via one batched grid-pruned distance pass.

        The grid query returns a superset of the edges within
        ``candidate_radius`` of each fix, so the exact distances computed on
        the pruned pairs select exactly the candidates of the full scan.
        """
        grid = self.grid_index
        radius = self.candidate_radius
        per_point = [grid.query(point, radius) for point in positions]
        counts = np.array([len(edges) for edges in per_point], dtype=np.int64)

        if counts.sum():
            flat_edges = np.concatenate(
                [edges for edges in per_point if len(edges)])
            point_rows = np.repeat(np.arange(len(positions)), counts)
            starts, ends = self._segments
            flat_distances, t = _project_points_onto_segments(
                positions[point_rows], starts[flat_edges], ends[flat_edges])
        else:
            flat_edges = np.empty(0, dtype=np.int64)
            flat_distances = t = np.empty(0)
        offsets = np.concatenate(([0], np.cumsum(counts)))

        candidate_sets, fraction_sets, emission_sets = [], [], []
        for index, point in enumerate(positions):
            low, high = offsets[index], offsets[index + 1]
            sub_distances = flat_distances[low:high]
            within = sub_distances <= radius
            if within.any():
                sub_distances = sub_distances[within]
                sub_edges = flat_edges[low:high][within]
                sub_fractions = t[low:high][within]
                # Stable sort over ascending edge ids ties exactly like the
                # reference's stable argsort over the full distance vector.
                order = np.argsort(sub_distances, kind="stable")[:self.max_candidates]
                edges = sub_edges[order]
                distances = sub_distances[order]
                fractions = sub_fractions[order]
            else:
                # Nothing within the radius (or no grid cell hit): fall back
                # to the reference full scan for this fix.
                edges, distances, fractions = self._reference_candidates(point)
            candidate_sets.append(edges)
            fraction_sets.append(fractions)
            emission_sets.append(self._emission_log_prob(distances))
        return candidate_sets, fraction_sets, emission_sets

    # ------------------------------------------------------------------
    # Emission and transition models
    # ------------------------------------------------------------------
    def _emission_log_prob(self, distance):
        sigma = self.emission_sigma
        return -0.5 * (distance / sigma) ** 2 - np.log(sigma * np.sqrt(2 * np.pi))

    def _reference_transition_log_prob(self, edge_a, fraction_a, edge_b,
                                       fraction_b, straight_distance):
        """Transition likelihood between consecutive candidates.

        The network distance is the driving distance between the two fixes'
        projection points: remaining length of ``edge_a`` past its match
        point, the shortest path between the edges, and the length of
        ``edge_b`` up to its match point.  A crawl along one long edge is
        therefore scored by the distance actually driven, not as stationary.
        """
        length_a = self.network.edge_length(edge_a)
        if edge_a == edge_b and fraction_b >= fraction_a:
            network_distance = (fraction_b - fraction_a) * length_a
        else:
            target_a = self.network.edge_endpoints(edge_a)[1]
            source_b = self.network.edge_endpoints(edge_b)[0]
            if target_a == source_b:
                between = 0.0
            else:
                connecting = shortest_path(
                    self.network, target_a, source_b,
                    edge_cost=self.network.edge_length,
                )
                if connecting is None:
                    return -np.inf
                between = sum(self.network.edge_length(e) for e in connecting)
            network_distance = ((1.0 - fraction_a) * length_a + between
                                + fraction_b * self.network.edge_length(edge_b))
        difference = abs(network_distance - straight_distance)
        return -difference / self.transition_beta

    def _vectorized_transitions(self, edges_a, fractions_a, edges_b,
                                fractions_b, straight_distance):
        """(K_prev, K_cur) transition log-prob matrix for one Viterbi step.

        Between-edge driving distances come from the LRU Dijkstra cache: one
        resumable multi-target run per unique previous-candidate head node,
        shared across steps and trajectories.
        """
        lengths_a = self._lengths[edges_a]
        lengths_b = self._lengths[edges_b]
        sources = self._edge_targets[edges_a].tolist()
        targets = self._edge_sources[edges_b].tolist()
        # Candidate sets are tiny (<= max_candidates), so dict-based dedupe
        # beats np.unique; the gather below is order-independent.
        unique_sources = list(dict.fromkeys(sources))
        unique_targets = list(dict.fromkeys(targets))
        source_rows = {node: row for row, node in enumerate(unique_sources)}
        target_cols = {node: col for col, node in enumerate(unique_targets)}
        cache = self.dijkstra_cache
        between = np.empty((len(unique_sources), len(unique_targets)))
        for row, source in enumerate(unique_sources):
            distances = cache.distances(source, unique_targets)
            between[row] = [distances[t] for t in unique_targets]
        inverse_a = [source_rows[node] for node in sources]
        inverse_b = [target_cols[node] for node in targets]
        between = between[inverse_a][:, inverse_b]

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
    def _reference_decode(self, candidate_sets, fraction_sets, emission_sets,
                          straights):
        """Viterbi with per-pair Python loops and fresh Dijkstras."""
        scores = [emission_sets[0]]
        back_pointers = [np.zeros(len(candidate_sets[0]), dtype=np.int64)]
        break_steps = set()
        for step in range(1, len(candidate_sets)):
            straight = straights[step - 1]
            previous_scores = scores[-1]
            previous_edges = candidate_sets[step - 1]
            previous_fractions = fraction_sets[step - 1]
            current_edges = candidate_sets[step]
            current_fractions = fraction_sets[step]
            best_values = np.full(len(current_edges), -np.inf)
            pointers = np.zeros(len(current_edges), dtype=np.int64)
            for j in range(len(current_edges)):
                best_value = -np.inf
                best_index = 0
                for i in range(len(previous_edges)):
                    transition = self._reference_transition_log_prob(
                        previous_edges[i], previous_fractions[i],
                        current_edges[j], current_fractions[j], straight)
                    value = previous_scores[i] + transition
                    if value > best_value:
                        best_value = value
                        best_index = i
                best_values[j] = best_value
                pointers[j] = best_index
            if not np.any(best_values > -np.inf):
                # HMM break: no candidate is reachable from the previous
                # fix.  Restart decoding from this fix.
                break_steps.add(step)
                scores.append(emission_sets[step])
                back_pointers.append(np.zeros(len(current_edges), dtype=np.int64))
            else:
                scores.append(best_values + emission_sets[step])
                back_pointers.append(pointers)
        return scores, back_pointers, break_steps

    def _vectorized_decode(self, candidate_sets, fraction_sets, emission_sets,
                           straights):
        """Matrix-form Viterbi: one (K, K) transition matrix per step."""
        scores = [emission_sets[0]]
        back_pointers = [np.zeros(len(candidate_sets[0]), dtype=np.int64)]
        break_steps = set()
        for step in range(1, len(candidate_sets)):
            transitions = self._vectorized_transitions(
                candidate_sets[step - 1], fraction_sets[step - 1],
                candidate_sets[step], fraction_sets[step],
                straights[step - 1])
            values = scores[-1][:, None] + transitions
            best_values = values.max(axis=0)
            if not np.any(best_values > -np.inf):
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
        """Viterbi-matched edge per fix plus the HMM-break step indices."""
        positions = trajectory.positions()
        if len(positions) == 0:
            return [], set()
        candidate_sets, fraction_sets, emission_sets = \
            self._vectorized_candidate_sets(positions)
        straights = np.sqrt(
            ((positions[1:] - positions[:-1]) ** 2).sum(axis=1))
        scores, back_pointers, break_steps = self._vectorized_decode(
            candidate_sets, fraction_sets, emission_sets, straights)
        matched = self._backtrack(candidate_sets, scores, back_pointers,
                                  break_steps)
        return matched, break_steps

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def match(self, trajectory):
        """Return the most likely edge path for a :class:`GPSTrajectory`.

        The Viterbi-decoded candidate sequence is stitched into a connected
        path by inserting shortest-path segments between consecutive matched
        edges; matched edges that cannot be connected (e.g. after an HMM
        break onto a different component) are dropped, so the result is
        always a connected path.  Use :meth:`match_segments` to recover every
        decoded segment of a broken trajectory.
        """
        matched, _ = self._match_edges(trajectory)
        return self._stitch(matched)

    def match_segments(self, trajectory):
        """Connected sub-paths of the match, one per HMM segment.

        A trajectory that never breaks yields a single segment equal to
        :meth:`match`; each break (no reachable transition between two
        consecutive fixes) starts a new segment.
        """
        matched, break_steps = self._match_edges(trajectory)
        if not matched:
            return []
        bounds = sorted({0, len(matched)} | break_steps)
        segments = []
        for low, high in zip(bounds, bounds[1:]):
            stitched = self._stitch(matched[low:high])
            if stitched:
                segments.append(stitched)
        return segments

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
