"""GPS trajectory synthesis (paper Definition 2).

Given a path, a departure time and the speed model, the sampler emits
timestamped GPS points along the path geometry at a configurable rate, with
Gaussian positioning noise — mimicking the 1 Hz (Aalborg), 1/30 Hz (Harbin)
and 1/4–1/2 Hz (Chengdu) data the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import check_real

__all__ = ["GPSPoint", "GPSTrajectory", "GPSSampler"]


@dataclass(frozen=True)
class GPSPoint:
    """One timestamped GPS fix: position (metres) and seconds since departure."""

    x: float
    y: float
    timestamp: float


class GPSTrajectory:
    """A sequence of GPS points plus the ground-truth path that produced it."""

    def __init__(self, points, true_path, departure_time):
        self.points = list(points)
        self.true_path = true_path
        self.departure_time = departure_time

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def positions(self):
        """(N, 2) array of point coordinates."""
        return np.array([[p.x, p.y] for p in self.points])


class GPSSampler:
    """Sample noisy GPS fixes along a path driven under the speed model.

    ``sample_interval`` (seconds between fixes) must be a positive finite
    number and ``noise_std`` (metres) a non-negative finite one.
    """

    def __init__(self, network, speed_model, sample_interval=15.0, noise_std=8.0, seed=0):
        self.network = network
        self.speed_model = speed_model
        self.sample_interval = check_real("sample_interval", sample_interval, above=0)
        self.noise_std = check_real("noise_std", noise_std, at_least=0)
        self.rng = np.random.default_rng(seed)

    def sample(self, path, departure_time):
        """Generate a :class:`GPSTrajectory` for driving ``path`` at ``departure_time``.

        Raises
        ------
        ValueError
            If ``path`` is empty (there is no geometry to sample along) or
            holds an id that is not an edge of the network.
        """
        path = list(path)
        if not path:
            raise ValueError("cannot sample GPS fixes along an empty path")
        edge_times = self.speed_model.edge_travel_times(path, departure_time, rng=self.rng)
        cumulative = np.concatenate(([0.0], np.cumsum(edge_times)))
        total_time = cumulative[-1]

        # Strictly-before comparison: when total_time is an exact multiple of
        # the sample interval, the final fix appended below would otherwise
        # be duplicated (two points with identical timestamp and position).
        points = []
        timestamp = 0.0
        while timestamp < total_time:
            position = self._position_at(path, cumulative, timestamp)
            noisy = (
                position[0] + self.rng.normal(0.0, self.noise_std),
                position[1] + self.rng.normal(0.0, self.noise_std),
            )
            points.append(GPSPoint(x=noisy[0], y=noisy[1], timestamp=timestamp))
            timestamp += self.sample_interval
        # Always include the final position so short paths get >= 2 points.
        final = self._position_at(path, cumulative, total_time)
        points.append(GPSPoint(
            x=final[0] + self.rng.normal(0.0, self.noise_std),
            y=final[1] + self.rng.normal(0.0, self.noise_std),
            timestamp=total_time,
        ))
        return GPSTrajectory(points, true_path=list(path), departure_time=departure_time)

    def _position_at(self, path, cumulative, timestamp):
        """Interpolated position along the path at ``timestamp`` seconds."""
        path = list(path)
        edge_index = int(np.searchsorted(cumulative, timestamp, side="right")) - 1
        edge_index = min(max(edge_index, 0), len(path) - 1)
        edge = path[edge_index]
        span = cumulative[edge_index + 1] - cumulative[edge_index]
        fraction = 0.0 if span <= 0 else (timestamp - cumulative[edge_index]) / span
        return self.network.point_along_edge(edge, fraction)
