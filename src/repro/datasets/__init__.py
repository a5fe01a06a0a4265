"""Datasets: synthetic city corpora, temporal paths, task labels, splits."""

from .splits import grouped_train_test_split, minibatch_indices, train_test_split
from .synthetic import (
    DATASET_BUILDERS,
    CityDataset,
    DatasetScale,
    aalborg,
    build_city_dataset,
    chengdu,
    harbin,
    mapmatch_trips,
)
from .tasks import (
    RankingExample,
    RecommendationExample,
    TaskDatasets,
    TravelTimeExample,
    build_task_datasets,
    ranking_arrays,
    recommendation_arrays,
    travel_time_arrays,
)
from .temporal_paths import TemporalPath, TemporalPathDataset

__all__ = [
    "TemporalPath",
    "TemporalPathDataset",
    "TravelTimeExample",
    "RankingExample",
    "RecommendationExample",
    "TaskDatasets",
    "build_task_datasets",
    "travel_time_arrays",
    "ranking_arrays",
    "recommendation_arrays",
    "train_test_split",
    "grouped_train_test_split",
    "minibatch_indices",
    "DatasetScale",
    "CityDataset",
    "build_city_dataset",
    "mapmatch_trips",
    "aalborg",
    "harbin",
    "chengdu",
    "DATASET_BUILDERS",
]
