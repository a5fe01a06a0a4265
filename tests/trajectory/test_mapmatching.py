"""Tests for the HMM map matcher and its loop oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet import EdgeFeatures, RoadNetwork
from repro.temporal import DepartureTime
from repro.trajectory import GPSPoint, GPSSampler, GPSTrajectory, HMMMapMatcher, SpeedModel
from reference_mapmatching import (
    ReferenceMatcher,
    reference_candidate_sets,
    reference_candidates,
    reference_transition_log_prob,
)


def build_path(network, start_node=0, hops=5):
    path = []
    node = start_node
    for _ in range(hops):
        edges = network.out_edges(node)
        if not edges:
            break
        path.append(edges[0])
        node = network.edge_endpoints(edges[0])[1]
    return path


def features(length):
    return EdgeFeatures(road_type="residential", lanes=1, one_way=False,
                        traffic_signals=False, length=length, speed_limit=36.0)


def make_trajectory(points):
    """A GPSTrajectory from raw (x, y) pairs with 10 s spacing."""
    gps_points = [GPSPoint(x=float(x), y=float(y), timestamp=10.0 * i)
                  for i, (x, y) in enumerate(points)]
    return GPSTrajectory(gps_points, true_path=None, departure_time=None)


@pytest.fixture(scope="module")
def single_edge_network():
    """One long directed edge from (0, 0) to (1000, 0)."""
    network = RoadNetwork()
    network.add_node(0.0, 0.0)
    network.add_node(1000.0, 0.0)
    network.add_edge(0, 1, features(1000.0))
    return network


@pytest.fixture(scope="module")
def disconnected_network():
    """Two chains of two edges each, 10 km apart, with no connection."""
    network = RoadNetwork()
    for x in (0.0, 100.0, 200.0):
        network.add_node(x, 0.0)
    for x in (10000.0, 10100.0, 10200.0):
        network.add_node(x, 0.0)
    network.add_edge(0, 1, features(100.0))   # 0
    network.add_edge(1, 2, features(100.0))   # 1
    network.add_edge(3, 4, features(100.0))   # 2
    network.add_edge(4, 5, features(100.0))   # 3
    return network


class TestHMMMapMatcher:
    @pytest.fixture(scope="class")
    def matcher(self, tiny_network):
        return HMMMapMatcher(tiny_network, emission_sigma=10.0, candidate_radius=150.0)

    @pytest.mark.parametrize("name", ["emission_sigma", "transition_beta",
                                      "candidate_radius"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_parameter_validation(self, tiny_network, name, value):
        # A NaN sigma or beta used to be accepted, a NaN or inf radius still
        # returned a match, and True matched with a 1 m setting.
        with pytest.raises(ValueError,
                           match=rf"{name} must be a finite real in \(0, inf\), got {value!r}"):
            HMMMapMatcher(tiny_network, **{name: value})

    @pytest.mark.parametrize("bad, entry", [((float("nan"), 300.0), r"nan at index \(1, 0\)"),
                                            ((560.0, float("inf")), r"inf at index \(1, 1\)")])
    def test_non_finite_fix_rejected(self, matcher, bad, entry):
        # Without fix 1 these fixes match [37, 10].  With it they used to
        # match nine or eleven edges in three HMM segments.
        trajectory = make_trajectory([(500.0, 300.0), bad, (560.0, 300.0),
                                      (600.0, 300.0)])
        for match in (matcher.match, lambda t: matcher.match_batch([t])):
            with pytest.raises(ValueError,
                               match=f"^GPS fix positions must be finite, got {entry}$"):
                match(trajectory)

    def test_empty_trajectory(self, matcher, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        sampler = GPSSampler(tiny_network, speed_model, seed=0)
        trajectory = sampler.sample(build_path(tiny_network, hops=2),
                                    DepartureTime.from_hour(0, 8.0))
        trajectory.points = []
        assert matcher.match(trajectory) == []

    def test_matched_path_is_connected(self, matcher, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=8.0,
                             noise_std=5.0, seed=1)
        trajectory = sampler.sample(build_path(tiny_network, hops=5),
                                    DepartureTime.from_hour(0, 9.0))
        matched = matcher.match(trajectory)
        assert matched
        assert tiny_network.is_connected_path(matched)

    def test_low_noise_recovers_most_of_true_path(self, tiny_network):
        """With small GPS noise the matcher should recover most true edges."""
        speed_model = SpeedModel(tiny_network, seed=0, noise_std=0.0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=5.0,
                             noise_std=3.0, seed=2)
        matcher = HMMMapMatcher(tiny_network, emission_sigma=10.0,
                                candidate_radius=120.0)
        true_path = build_path(tiny_network, hops=6)
        trajectory = sampler.sample(true_path, DepartureTime.from_hour(0, 10.0))
        matched = matcher.match(trajectory)
        overlap = len(set(true_path) & set(matched)) / len(set(true_path))
        assert overlap >= 0.5

    def test_point_to_edge_distances_nonnegative(self, matcher, tiny_network):
        distances = matcher._segment_distances((10.0, 20.0))[0]
        assert distances.shape == (tiny_network.num_edges,)
        assert (distances >= 0).all()

    def test_candidates_always_nonempty(self, matcher):
        edges, distances, fractions = reference_candidates(matcher, (1e6, 1e6))
        assert len(edges) >= 1
        assert len(edges) == len(distances) == len(fractions)

    def test_match_batch_matches_individual_calls(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=8.0,
                             noise_std=4.0, seed=5)
        trajectories = [
            sampler.sample(build_path(tiny_network, start_node=node, hops=5),
                           DepartureTime.from_hour(0, 9.0))
            for node in (0, 3, 7)
        ]
        matcher = HMMMapMatcher(tiny_network)
        batch = matcher.match_batch(trajectories)
        assert batch == [matcher.match(t) for t in trajectories]

    def test_dijkstra_cache_keeps_one_search_per_source(self, tiny_network):
        speed_model = SpeedModel(tiny_network, seed=0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=8.0,
                             noise_std=4.0, seed=6)
        trajectories = [
            sampler.sample(build_path(tiny_network, start_node=node, hops=6),
                           DepartureTime.from_hour(0, 9.0))
            for node in range(0, tiny_network.num_nodes, 3)
        ]
        matcher = HMMMapMatcher(tiny_network)
        matcher.match_batch(trajectories)
        cache = matcher.dijkstra_cache
        assert cache.hits > 0
        assert len(cache) == cache.misses <= tiny_network.num_nodes


class TestTransitionModel:
    """The corrected projection-point transition model (was: adjacency = 0 m)."""

    def test_crawl_along_one_edge_is_not_stationary(self, single_edge_network):
        matcher = HMMMapMatcher(single_edge_network, transition_beta=30.0)
        # Two fixes 500 m apart along the same 1000 m edge: the driving
        # distance is (0.6 - 0.1) * 1000 = 500 m, matching the straight-line
        # separation, so the transition is now a perfect score ...
        log_prob = reference_transition_log_prob(matcher, 0, 0.1, 0, 0.6, 500.0)
        assert log_prob == pytest.approx(0.0)
        # ... where the old edge_a == edge_b -> 0 m shortcut scored the same
        # move as a wildly implausible -500/beta.
        assert log_prob != pytest.approx(-500.0 / 30.0)

    def test_backwards_crawl_needs_a_return_route(self, single_edge_network):
        matcher = HMMMapMatcher(single_edge_network)
        # Moving backwards along a one-way edge requires a route from the
        # edge head back to its tail; none exists here.
        assert reference_transition_log_prob(
            matcher, 0, 0.6, 0, 0.1, 500.0) == -np.inf

    def test_adjacent_edges_use_projection_distance(self, tiny_network):
        matcher = HMMMapMatcher(tiny_network, transition_beta=30.0)
        edge_a = tiny_network.out_edges(0)[0]
        target = tiny_network.edge_endpoints(edge_a)[1]
        edge_b = tiny_network.out_edges(target)[0]
        length_a = tiny_network.edge_length(edge_a)
        length_b = tiny_network.edge_length(edge_b)
        expected_distance = (1.0 - 0.75) * length_a + 0.0 + 0.25 * length_b
        log_prob = reference_transition_log_prob(
            matcher, edge_a, 0.75, edge_b, 0.25, 0.0)
        assert log_prob == pytest.approx(-expected_distance / 30.0)
        # The old model scored adjacent edges as zero network distance.
        assert expected_distance > 0.0

    def test_vectorized_transitions_match_reference(self, single_edge_network,
                                                    tiny_network):
        for network in (single_edge_network, tiny_network):
            matcher = HMMMapMatcher(network)
            rng = np.random.default_rng(7)
            edges = rng.integers(0, network.num_edges, size=4)
            fractions = rng.uniform(0.0, 1.0, size=4)
            straight = 120.0
            matrix = matcher._transitions(
                edges[:2], fractions[:2], edges[2:], fractions[2:], straight)
            for i in range(2):
                for j in range(2):
                    reference = reference_transition_log_prob(
                        matcher, edges[i], fractions[i], edges[2 + j],
                        fractions[2 + j], straight)
                    assert matrix[i, j] == reference


class TestHMMBreak:
    """All-(-inf) Viterbi steps restart decoding (Newson & Krumm's HMM break)."""

    def test_decoding_restarts_after_a_break(self, disconnected_network):
        trajectory = make_trajectory(
            [(50.0, 1.0), (150.0, 1.0), (10050.0, 1.0), (10150.0, 1.0)])
        for matcher_class in (ReferenceMatcher, HMMMapMatcher):
            matcher = matcher_class(disconnected_network)
            assert matcher._match_edges(trajectory) == [0, 1, 2, 3]

    def test_match_keeps_connected_prefix_without_garbage(self, disconnected_network):
        trajectory = make_trajectory(
            [(50.0, 1.0), (150.0, 1.0), (10050.0, 1.0), (10150.0, 1.0)])
        matcher = HMMMapMatcher(disconnected_network)
        matched = matcher.match(trajectory)
        # No connector exists across the break, so match() keeps the first
        # component's edges instead of stitching disconnected garbage.
        assert matched == [0, 1]
        assert disconnected_network.is_connected_path(matched)


def assert_same_candidate_sets(matcher, positions):
    """``_candidate_sets`` equals the full-scan oracle in dtype and bytes."""
    expected = reference_candidate_sets(matcher, positions)
    actual = matcher._candidate_sets(positions)
    for expected_arrays, actual_arrays in zip(expected, actual, strict=True):
        for want, got in zip(expected_arrays, actual_arrays, strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def straddle_radius(matcher, edge, point, axis, step):
    """The two fixes one ulp apart on ``axis`` whose distances to ``edge``
    (through ``_segment_distances``) straddle ``candidate_radius``.

    ``point`` lies at the radius and ``step`` (±1) is the direction along
    ``axis`` away from the segment.  Bisects the coordinate between half a
    radius inside and half a radius beyond; the first fix returned is at or
    inside the radius, the second just beyond it.
    """
    radius = matcher.candidate_radius

    def fix_at(coordinate):
        fix = np.array(point, dtype=np.float64)
        fix[axis] = coordinate
        return fix

    def inside(coordinate):
        return matcher._segment_distances(fix_at(coordinate))[0][edge] <= radius

    near = point[axis] - step * radius / 2
    far = point[axis] + step * radius / 2
    assert inside(near) and not inside(far)
    while (middle := near + (far - near) / 2) not in (near, far):
        if inside(middle):
            near = middle
        else:
            far = middle
    return fix_at(near), fix_at(far)


@st.composite
def boundary_cases(draw):
    """A few random segments and fixes at their radius, off ends and sides."""
    # Whole-metre draws put the nominal fixes exactly at the radius.
    coordinates = st.one_of(st.integers(min_value=-2000, max_value=2000).map(float),
                            st.floats(min_value=-2000.0, max_value=2000.0))
    num_edges = draw(st.integers(min_value=1, max_value=4))
    network = RoadNetwork()
    for _ in range(2 * num_edges):
        network.add_node(draw(coordinates), draw(coordinates))
    for edge in range(num_edges):
        network.add_edge(2 * edge, 2 * edge + 1, features(100.0))
    matcher = HMMMapMatcher(network, candidate_radius=draw(st.one_of(
        st.integers(min_value=1, max_value=400).map(float),
        st.floats(min_value=0.5, max_value=400.0))))
    radius = matcher.candidate_radius
    starts, ends = matcher._segments

    fixes = []
    for edge in range(num_edges):
        start, end = starts[edge], ends[edge]
        direction = end - start
        # Beyond each end on each axis, moving away from the segment.
        for anchor, outward in ((end, np.sign(direction)), (start, -np.sign(direction))):
            for axis in (0, 1):
                step = outward[axis] or 1.0
                point = anchor.copy()
                point[axis] += step * radius
                fixes.append(point)
                fixes.extend(straddle_radius(matcher, edge, point, axis, step))
        # Off both sides of the midpoint, along the segment's normal.
        length = np.hypot(*direction)
        if length > 1e-3:
            normal = np.array([-direction[1], direction[0]]) / length
            axis = int(np.argmax(np.abs(normal)))
            for side in (1.0, -1.0):
                point = (start + end) / 2 + side * radius * normal
                fixes.append(point)
                fixes.extend(straddle_radius(
                    matcher, edge, point, axis, side * np.sign(normal[axis])))
    # No edge within the radius: the closest-edge fallback.
    fixes.append(np.array([1e5, -1e5]))
    fixes.extend(np.array(draw(st.lists(st.tuples(coordinates, coordinates),
                                        max_size=6))).reshape(-1, 2))
    return matcher, np.array(fixes)


class TestImplEquivalence:
    """The matcher and its loop oracles decode bit-identical paths."""

    @pytest.fixture(scope="class")
    def matchers(self, tiny_network):
        return ReferenceMatcher(tiny_network), HMMMapMatcher(tiny_network)

    def test_fixed_seed_trajectories_decode_identically(self, matchers, tiny_network):
        reference, vectorized = matchers
        speed_model = SpeedModel(tiny_network, seed=0)
        for seed in range(6):
            sampler = GPSSampler(tiny_network, speed_model, sample_interval=7.0,
                                 noise_std=6.0, seed=seed)
            start = seed % tiny_network.num_nodes
            path = build_path(tiny_network, start_node=start, hops=4 + seed)
            if not path:
                continue
            trajectory = sampler.sample(path, DepartureTime.from_hour(seed % 7, 9.0))
            assert reference.match(trajectory) == vectorized.match(trajectory)

    def test_candidate_sets_identical(self, matchers, tiny_network):
        _, vectorized = matchers
        rng = np.random.default_rng(11)
        # Two fixes with no edge inside the candidate radius take the
        # closest-edge fallback: a far corner, and a point 300 m off a
        # two-way street, so its two directed edges tie for closest.
        fallbacks = np.array([[1e6, 1e6], [375.0, -800.0]])
        for point in fallbacks:
            distances = vectorized._segment_distances(point)[0]
            assert distances.min() > vectorized.candidate_radius
        assert np.count_nonzero(
            vectorized._segment_distances(fallbacks[1])[0] == 300.0) == 2
        positions = np.vstack([rng.uniform(-100.0, 900.0, size=(12, 2)), fallbacks])
        assert_same_candidate_sets(vectorized, positions)

    @given(boundary_cases())
    @settings(max_examples=60, deadline=None)
    def test_candidate_sets_identical_at_the_radius(self, case):
        # Fixes exactly at the radius, and one ulp either side, must not be
        # dropped by the bounding-box prefilter.
        matcher, positions = case
        assert_same_candidate_sets(matcher, positions)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           hops=st.integers(min_value=2, max_value=8),
           noise=st.floats(min_value=0.0, max_value=15.0),
           interval=st.sampled_from([4.0, 10.0, 25.0]))
    @settings(max_examples=25, deadline=None)
    def test_decode_equivalence_property(self, matchers, tiny_network,
                                         seed, hops, noise, interval):
        reference, vectorized = matchers
        speed_model = SpeedModel(tiny_network, seed=0)
        sampler = GPSSampler(tiny_network, speed_model, sample_interval=interval,
                             noise_std=noise, seed=seed)
        start = seed % tiny_network.num_nodes
        path = build_path(tiny_network, start_node=start, hops=hops)
        if not path:
            return
        trajectory = sampler.sample(
            path, DepartureTime.from_hour(seed % 7, 6.0 + (seed % 16)))
        assert reference.match(trajectory) == vectorized.match(trajectory)
