"""The loop oracles for :mod:`repro.trajectory.mapmatching`.

Each function takes an :class:`~repro.trajectory.HMMMapMatcher` and redoes
one stage of its pipeline the slow, obvious way: a full segment-distance
scan per fix for candidates, and a per-pair Viterbi that prices every
transition with a fresh run of the Dijkstra oracle
``tests/roadnet/reference_search.py``.
:class:`ReferenceMatcher` is the matcher with both swapped in; it must decode
bit-identical paths.
"""

from __future__ import annotations

import numpy as np
from reference_search import shortest_path

from repro.trajectory import HMMMapMatcher
from repro.trajectory.mapmatching import _MAX_CANDIDATES


def reference_candidates(matcher, point):
    """Closest candidate edges within the search radius (full scan).

    Returns ``(edges, distances, fractions)`` arrays for the selected
    candidates; the projection fraction locates each fix's match point
    along its candidate edge for the transition model.
    """
    distances, fractions = matcher._segment_distances(point)
    order = np.argsort(distances, kind="stable")
    selected = [int(e) for e in order[:_MAX_CANDIDATES]
                if distances[e] <= matcher.candidate_radius]
    if not selected:
        # Fall back to the single closest edge so matching never fails.
        selected = [int(order[0])]
    edges = np.array(selected, dtype=np.int64)
    return edges, distances[edges], fractions[edges]


def reference_candidate_sets(matcher, positions):
    """Per-fix candidates via the full-scan loop."""
    candidate_sets, fraction_sets, emission_sets = [], [], []
    for point in positions:
        edges, distances, fractions = reference_candidates(matcher, point)
        candidate_sets.append(edges)
        fraction_sets.append(fractions)
        emission_sets.append(
            np.array([matcher._emission_log_prob(d) for d in distances])
        )
    return candidate_sets, fraction_sets, emission_sets


def reference_transition_log_prob(matcher, edge_a, fraction_a, edge_b,
                                  fraction_b, straight_distance):
    """Transition likelihood between consecutive candidates.

    The network distance is the driving distance between the two fixes'
    projection points: remaining length of ``edge_a`` past its match
    point, the shortest path between the edges, and the length of
    ``edge_b`` up to its match point.
    """
    network = matcher.network
    length_a = network.edge_length(edge_a)
    if edge_a == edge_b and fraction_b >= fraction_a:
        network_distance = (fraction_b - fraction_a) * length_a
    else:
        target_a = network.edge_endpoints(edge_a)[1]
        source_b = network.edge_endpoints(edge_b)[0]
        if target_a == source_b:
            between = 0.0
        else:
            connecting = shortest_path(
                network, target_a, source_b, edge_cost=network.edge_length,
            )
            if connecting is None:
                return -np.inf
            between = sum(network.edge_length(e) for e in connecting)
        network_distance = ((1.0 - fraction_a) * length_a + between
                            + fraction_b * network.edge_length(edge_b))
    difference = abs(network_distance - straight_distance)
    return -difference / matcher.transition_beta


def reference_decode(matcher, candidate_sets, fraction_sets, emission_sets,
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
                transition = reference_transition_log_prob(
                    matcher, previous_edges[i], previous_fractions[i],
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


class ReferenceMatcher(HMMMapMatcher):
    """The matcher with the loop oracles swapped in for candidate search
    (full scan per fix) and decoding (per-pair Viterbi, fresh Dijkstras)."""

    def _candidate_sets(self, positions):
        return reference_candidate_sets(self, positions)

    def _decode(self, *args):
        return reference_decode(self, *args)
