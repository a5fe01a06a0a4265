"""The three benchmark workloads.

A workload has a ``setup(seed)`` that runs before the timed region and a
``run_pass()`` that runs one unit of timed work and returns a
:class:`PassResult`.  A pass times its work in consecutive chunks, so the
command can scale each chunk by the host's speed while it ran.
"""

from __future__ import annotations

import copy
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core import WSCCL, SharedResources
from repro.datasets import DatasetScale, TemporalPath, aalborg
from repro.downstream import evaluate_travel_time
from repro.evaluation import HarnessConfig, fit_wsccl
from repro.serving import PathEmbeddingService
from repro.temporal import DepartureTime

from suite import RUNNERS, expect, run_runner


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    #: ``(start, seconds)`` of the pass's consecutive chunks of work, in
    #: pass order, on the ``time.perf_counter`` clock.
    chunks: list
    #: Travel-time MAE of the WSCCL model this pass trained or served.
    tt_mae: float = math.nan
    extra: dict = field(default_factory=dict)


def report_failure(what):
    """Print the traceback of a failed operation to stderr."""
    print(f"FAILED: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class PaperSuite:
    """The 12 paper runners at ``HarnessConfig.benchmark()``, in one process.

    The seed sets the order the runners execute in.  Their configuration is
    exactly that of ``benchmarks/``, whose shape assertions hold for it, so
    every seed yields the same tables.
    """

    name = "paper-suite"
    operation = "runner"
    trains_in_setup = False

    def setup(self, seed):
        self.config = HarnessConfig.benchmark()
        order = np.random.default_rng(seed).permutation(len(RUNNERS))
        self.runners = [RUNNERS[i] for i in order]
        self.reference_runner = next(e for e in RUNNERS if e[0] == "table8")

    def run_runner(self, entry):
        """Run one runner; returns its results, or ``None`` if it failed."""
        try:
            return run_runner(entry, self.config)
        except Exception:  # noqa: BLE001 - a failed runner is counted, not fatal
            report_failure(entry[0])
            return None

    def run_pass(self):
        failed = 0
        seconds = {}
        chunks = []
        tt_mae = math.nan
        tau = math.nan
        start = time.perf_counter()
        for entry in self.runners:
            began = time.perf_counter()
            results = self.run_runner(entry)
            seconds[entry[0]] = time.perf_counter() - began
            chunks.append((began, seconds[entry[0]]))
            if results is None:
                failed += 1
            elif entry[0] == "table3":
                wsccl = results["aalborg"]["WSCCL"]
                tt_mae = wsccl["travel_time"]["MAE"]
                tau = wsccl["ranking"]["tau"]
        return PassResult(time.perf_counter() - start, len(self.runners), failed,
                          chunks, tt_mae=tt_mae,
                          extra={"rank_tau": tau, "runner_s": seconds})


class PretrainMapmatched:
    """Map-matched Aalborg at ``DatasetScale.medium()``, pretrained uncapped.

    The seed is the city seed, so it changes the network, the trips and
    the GPS noise.  One pass builds the dataset (simulate, sample GPS,
    map-match), builds ``SharedResources``, fits WSCCL with every epoch of
    ``HarnessConfig.benchmark().wsccl`` and evaluates travel time.  It runs
    by hand and is not listed in ``BENCHMARK.json`` (see ``COLUMNS.md``).
    """

    name = "pretrain-mapmatched"
    operation = "trace"
    trains_in_setup = False

    def setup(self, seed):
        self.config = HarnessConfig.benchmark()
        self.city_seed = 1000 + seed

    def run_pass(self):
        scale = DatasetScale.medium()
        start = time.perf_counter()
        try:
            city = aalborg(scale=scale, seed=self.city_seed, paths_from="mapmatched")
            resources = SharedResources(city.network, self.config.wsccl)
            model = WSCCL(city.network, config=self.config.wsccl, resources=resources)
            model.fit(city.unlabeled)
            result = evaluate_travel_time(
                model, city.tasks.travel_time, test_fraction=self.config.test_fraction,
                seed=self.config.seed, n_estimators=self.config.n_estimators)
            seconds = time.perf_counter() - start
            expect(len(city.unlabeled) == scale.num_trips, "corpus size")
            expect(all(math.isfinite(v) for v in model.history.epoch_losses),
                   "non-finite training loss")
            expect(math.isfinite(result.mae) and result.mae > 0, "travel-time MAE")
        except Exception:  # noqa: BLE001 - counted as failed traces
            report_failure(self.name)
            seconds = time.perf_counter() - start
            return PassResult(seconds, scale.num_trips, scale.num_trips, [(start, seconds)])
        return PassResult(seconds, scale.num_trips, 0, [(start, seconds)], tt_mae=result.mae)


def zipf_ranks(rng, exponent, count, size):
    """Zipf(``exponent``) draws folded onto ranks ``0 .. count - 1``."""
    return (rng.zipf(exponent, size=size) - 1) % count


class ServeZipf:
    """Closed-loop replay of a Zipf request trace against a warm service.

    Setup trains WSCCL on Aalborg at ``DatasetScale.benchmark()`` with the
    harness's benchmark configuration; :meth:`retrain` repeats that fit, so
    the training rate can be sampled between passes.  The seed draws the
    trace: requests of one path (70%) or 32 paths (30%, at seeded
    positions); routes Zipf(1.2) over the city's distinct corpus and ranking
    routes; departures a uniform day and a Zipf(1.5)-popular half-hour slot.
    The popularity order of routes and slots is fixed.  Setup replays the
    first 1,000 requests against a :class:`PathEmbeddingService` with its
    defaults, which fills its cache.  Each pass replays the next 1,000
    requests with one client against a copy of that warm service, and checks
    one seeded row of every request against direct ``model.encode``.  The
    pass is timed in chunks of 50 consecutive requests.
    """

    name = "serve-zipf"
    operation = "request"
    trains_in_setup = True
    warmup_requests = 1000
    num_requests = 1000
    chunk_requests = 50
    batch_request_share = 0.3
    batch_request_size = 32
    tolerance = 1e-10

    def setup(self, seed):
        self.config = config = HarnessConfig.benchmark()
        self.city = city = aalborg(scale=DatasetScale.benchmark())
        self.resources = SharedResources(city.network, config.wsccl)
        self.model = self.retrain()
        self.tt_mae = evaluate_travel_time(
            self.model, city.tasks.travel_time, test_fraction=config.test_fraction,
            seed=config.seed, n_estimators=config.n_estimators).mae
        requests, sampled = self.make_trace(city, seed)
        self.warm_service = PathEmbeddingService(self.model)
        for request in requests[:self.warmup_requests]:
            self.warm_service.embed(request)
        self.warm_service.reset_metrics()
        self.requests = requests[self.warmup_requests:]
        self.sampled = sampled[self.warmup_requests:]
        self.expected = None

    def retrain(self):
        """Fit the served WSCCL again, from the same node2vec features."""
        return fit_wsccl(self.city, self.config, variant="full", resources=self.resources)

    def make_trace(self, city, seed):
        # Which routes and slots are popular is part of the workload, fixed
        # across seeds so that every seed asks for about the same work; the
        # seed draws the requests.
        popularity = np.random.default_rng(0)
        routes = sorted({tp.path for tp in city.unlabeled.temporal_paths}
                        | {e.temporal_path.path for e in city.tasks.ranking})
        routes = [routes[i] for i in popularity.permutation(len(routes))]
        slots = popularity.permutation(48)
        rng = np.random.default_rng(seed)
        # Exactly 30% of the warm-up and of the timed requests are batches,
        # so every seed serves the same number of paths.
        sizes = np.concatenate([
            np.where(rng.permutation(count) < round(self.batch_request_share * count),
                     self.batch_request_size, 1)
            for count in (self.warmup_requests, self.num_requests)])
        requests, sampled = [], []
        for size in sizes.tolist():
            route_ids = zipf_ranks(rng, 1.2, len(routes), size)
            slot_ids = zipf_ranks(rng, 1.5, len(slots), size)
            days = rng.integers(0, 7, size=size)
            requests.append([
                TemporalPath(routes[r], DepartureTime(int(d), 1800.0 * slots[s]))
                for r, s, d in zip(route_ids, slot_ids, days)])
            sampled.append(int(rng.integers(size)))
        return requests, sampled

    def run_pass(self):
        # The copy shares the model and nothing else, so every pass starts
        # from the same warm cache.
        service = copy.deepcopy(self.warm_service, {id(self.model): self.model})
        rows = []
        failed = 0
        marks = [time.perf_counter()]
        for done, (request, row) in enumerate(zip(self.requests, self.sampled), 1):
            try:
                rows.append(service.embed(request)[row])
            except Exception:  # noqa: BLE001 - a failed request is counted
                report_failure("request")
                rows.append(None)
            if done % self.chunk_requests == 0 or done == len(self.requests):
                marks.append(time.perf_counter())
        seconds = marks[-1] - marks[0]
        if self.expected is None:
            paths = [request[row] for request, row in zip(self.requests, self.sampled)]
            self.expected = self.model.encode(paths)
        for got, want in zip(rows, self.expected):
            if got is None or not np.allclose(got, want, rtol=0.0, atol=self.tolerance):
                failed += 1
        scraped = service.scrape()
        chunks = list(zip(marks[:-1], np.diff(marks).tolist()))
        return PassResult(seconds, len(self.requests), failed, chunks, tt_mae=self.tt_mae,
                          extra={"cache_hit_rate": scraped["cache_hit_rate"],
                                 "padding_efficiency": scraped["padding_efficiency"]})


WORKLOADS = {w.name: w for w in (PaperSuite, PretrainMapmatched, ServeZipf)}
