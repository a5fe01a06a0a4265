"""Synthetic city datasets mirroring the paper's three corpora.

Each builder produces a :class:`CityDataset` containing the road network, the
speed model, the simulated trips, the unlabeled temporal-path corpus with
weak labels, and the three labelled task datasets.  The relative structure of
the three cities is preserved (Chengdu is the densest, Aalborg the sparsest,
Harbin in between), but every scale knob is reduced so experiments run on a
CPU in seconds-to-minutes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

from ..roadnet.generator import CityConfig, generate_city_network
from ..temporal.weak_labels import CongestionIndexLabeler, PeakOffPeakLabeler
from ..trajectory.gps import GPSSampler
from ..trajectory.mapmatching import HMMMapMatcher
from ..trajectory.simulator import TripSimulator
from ..trajectory.speeds import CongestionProfile, SpeedModel
from .tasks import TaskDatasets, build_task_datasets
from .temporal_paths import TemporalPath, TemporalPathDataset

__all__ = ["DatasetScale", "CityDataset", "build_city_dataset", "mapmatch_trips",
           "aalborg", "harbin", "chengdu", "DATASET_BUILDERS"]


@dataclass(frozen=True)
class DatasetScale:
    """Scale knobs for a synthetic dataset build.

    ``tiny`` is for unit tests and the golden tables, ``benchmark`` for the
    paper-table suite of ``perfbench/``, ``small`` for the examples and
    ``medium`` for the map-matched pretraining workload of ``perfbench/``.
    The paper-scale corpora (tens of thousands of paths over ~10k-node
    networks) are out of reach for pure-numpy training.  Every field must be
    a positive integer.
    """

    grid_rows: int
    grid_cols: int
    num_trips: int
    num_labeled: int

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{field.name} must be a positive integer, got {value!r}")

    @classmethod
    def tiny(cls):
        return cls(grid_rows=5, grid_cols=5, num_trips=40, num_labeled=30)

    @classmethod
    def benchmark(cls):
        return cls(grid_rows=6, grid_cols=6, num_trips=100, num_labeled=80)

    @classmethod
    def small(cls):
        return cls(grid_rows=8, grid_cols=8, num_trips=160, num_labeled=120)

    @classmethod
    def medium(cls):
        return cls(grid_rows=12, grid_cols=12, num_trips=400, num_labeled=300)


@dataclass
class CityDataset:
    """Everything derived from one synthetic city."""

    name: str
    network: object
    speed_model: object
    trips: list
    unlabeled: TemporalPathDataset
    tasks: TaskDatasets
    pop_labeler: PeakOffPeakLabeler
    tci_labeler: CongestionIndexLabeler

    def statistics(self):
        """Dataset statistics in the shape of the paper's Table II."""
        return {
            "name": self.name,
            "num_nodes": self.network.num_nodes,
            "num_edges": self.network.num_edges,
            "unlabeled_paths": len(self.unlabeled),
            "labeled_paths": len(self.tasks.travel_time),
            "weak_label_distribution": self.unlabeled.label_distribution(),
        }


# City-specific layout parameters.  Grid aspect, arterial spacing and the
# congestion profile differ per city so the three datasets are genuinely
# different distributions, mirroring (at reduced scale) the differences in
# network density and traffic regime between Aalborg, Harbin and Chengdu.
_CITY_LAYOUTS = {
    # One-way fractions decrease from Aalborg to Chengdu so the edge/node
    # density ordering of the paper's Table II (Chengdu densest, Aalborg
    # sparsest) carries over to the synthetic networks.
    # The "gps" block scales the paper's sampling regimes down to the
    # synthetic networks: Aalborg's fleet logs at 1 Hz (dense, precise),
    # Harbin's taxis at 1/30 Hz (sparse, noisy), Chengdu in between
    # (1/4-1/2 Hz).  Used by the paths_from="mapmatched" scenario.
    "aalborg": {
        "arterial_every": 5,
        "one_way_fraction": 0.45,
        "signal_fraction": 0.25,
        "profile": CongestionProfile(morning_intensity=0.65, afternoon_intensity=0.55),
        "seed": 11,
        "gps": {"sample_interval": 5.0, "noise_std": 5.0},
    },
    "harbin": {
        "arterial_every": 4,
        "one_way_fraction": 0.20,
        "signal_fraction": 0.35,
        "profile": CongestionProfile(morning_intensity=0.85, afternoon_intensity=0.80),
        "seed": 23,
        "gps": {"sample_interval": 30.0, "noise_std": 12.0},
    },
    "chengdu": {
        "arterial_every": 3,
        "one_way_fraction": 0.05,
        "signal_fraction": 0.45,
        "profile": CongestionProfile(morning_intensity=0.90, afternoon_intensity=0.85),
        "seed": 37,
        "gps": {"sample_interval": 10.0, "noise_std": 8.0},
    },
}


def mapmatch_trips(network, speed_model, trips, gps_settings, seed):
    """Replace each trip's path with the one recovered from noisy GPS.

    Samples a GPS trace along every trip's true path with
    :class:`~repro.trajectory.gps.GPSSampler`, recovers a path with the HMM
    map matcher (one :meth:`~repro.trajectory.mapmatching.HMMMapMatcher.match_batch`
    call so the Dijkstra cache is shared), and rebuilds the trips on the
    recovered paths.  Trips whose trace cannot be matched to a non-empty
    path keep their true path, so downstream corpus sizes are unchanged.
    """
    sampler = GPSSampler(network, speed_model, seed=seed, **gps_settings)
    matcher = HMMMapMatcher(network)
    trajectories = [sampler.sample(trip.path, trip.departure_time)
                    for trip in trips]
    matched_paths = matcher.match_batch(trajectories)
    rebuilt = []
    for trip, matched in zip(trips, matched_paths):
        path = list(matched) if matched else list(trip.path)
        rebuilt.append(replace(trip, path=path))
    return rebuilt


def build_city_dataset(name, scale=None, seed=None, paths_from="simulator"):
    """Build a synthetic :class:`CityDataset` for one of the three cities.

    ``paths_from`` selects where the corpus paths come from:

    * ``"simulator"`` (default) — ground-truth simulator paths, as before;
    * ``"mapmatched"`` — each trip's path is re-derived by sampling a noisy
      GPS trace along it (at the city's rate/noise regime) and recovering a
      path with the HMM map matcher, mimicking the paper's real ingestion
      pipeline where pretraining corpora come from map-matched GPS.
    """
    if name not in _CITY_LAYOUTS:
        raise KeyError(f"unknown city {name!r}; expected one of {sorted(_CITY_LAYOUTS)}")
    if paths_from not in ("simulator", "mapmatched"):
        raise ValueError(
            f"paths_from must be 'simulator' or 'mapmatched', got {paths_from!r}")
    layout = _CITY_LAYOUTS[name]
    scale = scale or DatasetScale.small()
    seed = layout["seed"] if seed is None else seed

    config = CityConfig(
        name=name,
        grid_rows=scale.grid_rows,
        grid_cols=scale.grid_cols,
        arterial_every=layout["arterial_every"],
        one_way_fraction=layout["one_way_fraction"],
        signal_fraction=layout["signal_fraction"],
        seed=seed,
    )
    network = generate_city_network(config)
    speed_model = SpeedModel(network, profile=layout["profile"], seed=seed)
    simulator = TripSimulator(network, speed_model=speed_model, seed=seed)
    trips = simulator.simulate(scale.num_trips)
    if paths_from == "mapmatched":
        trips = mapmatch_trips(network, speed_model, trips, layout["gps"], seed)

    pop_labeler = PeakOffPeakLabeler()
    tci_labeler = CongestionIndexLabeler(speed_model.congestion_level)

    temporal_paths = [
        TemporalPath(path=trip.path, departure_time=trip.departure_time)
        for trip in trips
    ]
    unlabeled = TemporalPathDataset(temporal_paths, pop_labeler)
    tasks = build_task_datasets(network, trips, max_labeled=scale.num_labeled)

    return CityDataset(
        name=name,
        network=network,
        speed_model=speed_model,
        trips=trips,
        unlabeled=unlabeled,
        tasks=tasks,
        pop_labeler=pop_labeler,
        tci_labeler=tci_labeler,
    )


def aalborg(scale=None, seed=None, paths_from="simulator"):
    """Synthetic stand-in for the Aalborg, Denmark dataset."""
    return build_city_dataset("aalborg", scale=scale, seed=seed,
                              paths_from=paths_from)


def harbin(scale=None, seed=None, paths_from="simulator"):
    """Synthetic stand-in for the Harbin, China dataset."""
    return build_city_dataset("harbin", scale=scale, seed=seed,
                              paths_from=paths_from)


def chengdu(scale=None, seed=None, paths_from="simulator"):
    """Synthetic stand-in for the Chengdu, China dataset."""
    return build_city_dataset("chengdu", scale=scale, seed=seed,
                              paths_from=paths_from)


#: Name -> builder mapping used by the benchmark harness.
DATASET_BUILDERS = {"aalborg": aalborg, "harbin": harbin, "chengdu": chengdu}
