"""Tests for edge features and the feature encoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import MAX_LANES, ROAD_TYPES, EdgeFeatures, FeatureEncoder


def make_features(**overrides):
    defaults = dict(road_type="residential", lanes=1, one_way=False,
                    traffic_signals=False, length=120.0, speed_limit=40.0)
    defaults.update(overrides)
    return EdgeFeatures(**defaults)


class TestEdgeFeatures:
    def test_valid_construction(self):
        features = make_features()
        assert features.road_type == "residential"

    def test_unknown_road_type_rejected(self):
        with pytest.raises(ValueError):
            make_features(road_type="goat-track")

    def test_lane_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_features(lanes=0)
        with pytest.raises(ValueError):
            make_features(lanes=MAX_LANES + 1)

    @pytest.mark.parametrize("name, value", [
        ("lanes", True), ("lanes", 1.5), ("length", float("nan")), ("speed_limit", True)])
    def test_rejects_bool_non_integer_and_non_finite_values(self, name, value):
        # lanes=True read as one lane, lanes=1.5 indexed no category, and a
        # NaN length priced every path through the edge as NaN.
        with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|finite real) "):
            make_features(**{name: value})

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            make_features(length=0.0)

    def test_positive_speed_required(self):
        with pytest.raises(ValueError):
            make_features(speed_limit=-5.0)

    def test_free_flow_time(self):
        features = make_features(length=1000.0, speed_limit=36.0)
        # 36 km/h = 10 m/s -> 100 seconds.
        assert features.free_flow_time == pytest.approx(100.0)

    def test_frozen(self):
        features = make_features()
        with pytest.raises(AttributeError):
            features.lanes = 3


class TestFeatureEncoder:
    def test_cardinalities(self):
        encoder = FeatureEncoder()
        assert encoder.num_road_types == len(ROAD_TYPES)
        assert encoder.num_lane_buckets == MAX_LANES
        assert encoder.num_one_way == 2
        assert encoder.num_signals == 2

    def test_categorical_indices(self):
        encoder = FeatureEncoder()
        features = make_features(road_type="primary", lanes=3, one_way=True,
                                 traffic_signals=False)
        rt, lanes, ow, ts = encoder.categorical_indices(features)
        assert rt == ROAD_TYPES.index("primary")
        assert lanes == 2
        assert ow == 1
        assert ts == 0

    def test_one_hot_matrix_length_and_sum(self):
        encoder = FeatureEncoder()
        matrix = encoder.one_hot_matrix(encoder.encode_edges([make_features()]))
        expected_length = len(ROAD_TYPES) + MAX_LANES + 2 + 2
        assert matrix.shape == (1, expected_length)
        assert matrix.sum() == 4.0

    def test_encode_edges_matrix(self):
        encoder = FeatureEncoder()
        rows = [make_features(road_type="motorway", lanes=3),
                make_features(road_type="service", lanes=1, traffic_signals=True)]
        matrix = encoder.encode_edges(rows)
        assert matrix.shape == (2, 4)
        assert matrix.dtype == np.int64
        assert matrix[0, 0] == ROAD_TYPES.index("motorway")
        assert matrix[1, 3] == 1
