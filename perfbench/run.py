"""End-to-end benchmark of the WSCCL pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``paper-suite``, ``pretrain-mapmatched`` and
``serve-zipf`` (see ``perfbench/COLUMNS.md`` for why each exists and what
every metric means).  The command sets up the workload, repeats its timed
pass until the passes have taken ``--seconds`` (at least once), checks every
output, prints each metric as ``name value unit`` and ends with one JSON line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
one untraced pass is followed by one pass with every public function of the
package wrapped (``perfbench/tracer.py``), and the metrics are per layer.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread per process: the pipeline is single-threaded Python
# around small matrices, and extra threads only contend for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import atexit  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

#: Samples the host's speed through set-up, imports included.  Stopped at
#: exit too, so that a failed set-up ends with its error, not with SIGALRM.
SETUP_SPEED = HostSpeed(interval_s=0.02).start()
atexit.register(SETUP_SPEED.stop)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")

from suite import RUNNERS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIT_GROUP = "core.wsccl_fit"
FIT_SPANS = ("core.WSCCL.fit", "core.WSCCL.fit_with_heuristic_curriculum",
             "core.WSCCL.fit_without_curriculum")
EMBED_SPAN = "serving.PathEmbeddingService.embed"
TRAIN_STEP_SPAN = "core.WSCTrainer.train_step"
#: The few spans the untraced run keeps, for its throughput and latency.
PROBE_SPANS = frozenset(FIT_SPANS + (EMBED_SPAN, TRAIN_STEP_SPAN))
SETUP_SAMPLES = {"paper-suite": 5, "pretrain-mapmatched": 5, "serve-zipf": 3}
RETRAIN_EVERY_S = 5.0
PASS_SPEED_INTERVAL_S = 0.05
#: Samples a reported latency percentile leaves beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
    "train_paths_per_s": "paths/s", "serve_paths_per_s": "paths/s",
    "latency_tail_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time as JSON")
    return parser.parse_args(argv)


def environment(seed):
    """Commit, interpreter, numpy, BLAS, cores and seed of this run."""
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=False).stdout.strip() or None
    sources = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "src_digest": sources.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "seed": seed,
    }


def scaled(speed, starts, seconds):
    """Each piece's ``seconds``, times the host's speed factor around it."""
    return [s * f for s, f in zip(seconds, speed.local_factors(starts, seconds))]


def train_paths_per_s(probe, speed):
    """Paths passed to ``train_step`` per second of ``WSCCL.fit*``, on the fast host.

    Each train step is scaled by the host's speed around it.  The rest of
    the fits runs between the steps, so it is scaled by their mean factor.
    """
    steps = probe.durations[TRAIN_STEP_SPAN]
    if not steps:
        return 0.0
    steps_s = sum(scaled(speed, probe.starts[TRAIN_STEP_SPAN], steps))
    fit_s = probe.groups[FIT_GROUP][1] * steps_s / sum(steps)
    return ratio(probe.counts["train_paths"], fit_s)


def setup_probe(args):
    """Set-up time, and set-up training, of one fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    output = subprocess.run(command, capture_output=True, text=True, check=True,
                            timeout=120).stdout
    return json.loads(output.strip().splitlines()[-1])


def percentile_ms(durations, q):
    return float(np.percentile(durations, q)) * 1000.0 if len(durations) else 0.0


def tail_percentile(count):
    """The highest percentile with at least ten of ``count`` samples beyond it.

    The median when there are too few samples for any tail.
    """
    return max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / count)) if count else 50.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def sampled(work):
    """Run ``work()`` under a :class:`HostSpeed`; returns its result and the sampler."""
    speed = HostSpeed(PASS_SPEED_INTERVAL_S).start()
    try:
        result = work()
    finally:
        speed.stop()
    return result, speed


def measure_pass(workload, probe):
    """Run one pass; returns its result and its values, scaled to the fast host."""
    probe.reset()
    result, speed = sampled(workload.run_pass)
    starts, seconds = zip(*result.chunks)
    latencies = scaled(speed, probe.starts[EMBED_SPAN], probe.durations[EMBED_SPAN])
    return result, {
        "speed": speed.factor(),
        "wall_s": sum(scaled(speed, starts, seconds)),
        "train_paths_per_s": train_paths_per_s(probe, speed),
        "serve_paths_per_s": ratio(probe.counts["served_paths"], sum(latencies)),
        "latency_tail_ms": percentile_ms(latencies, tail_percentile(len(latencies))),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_samples": len(latencies),
    }


def end_to_end(args, workload, probe, setup):
    """Passes for up to ``--seconds`` of pass time; the median pass per metric.

    The shared host switches between a fast state and one up to 2 times
    slower every few seconds, and under load it can stay slow for minutes.
    So each chunk of a pass, each ``embed`` call and each train step is
    timed and scaled by the :class:`HostSpeed` factor sampled around it, to
    the host's fast state.  A workload that trains only in set-up retrains
    every ``RETRAIN_EVERY_S`` of pass time, and its training rate is the
    median over set-up samples and retrains.  Set-up is sampled in fresh
    processes spread over the passes; both run outside the measured time.
    Each set-up time is scaled to the fast host, and set-up is reported as
    their median.
    """
    setups = [setup]
    samples = SETUP_SAMPLES[args.workload]
    passes, values, retrained = [], [], []
    measured_s = 0.0
    # Start a pass only if one more like the last still fits in --seconds.
    while not passes or measured_s + passes[-1].seconds <= args.seconds:
        result, measured = measure_pass(workload, probe)
        measured_s += result.seconds
        passes.append(result)
        values.append(measured)
        if workload.trains_in_setup and measured_s >= len(retrained) * RETRAIN_EVERY_S:
            probe.reset()
            _, speed = sampled(workload.retrain)
            retrained.append(train_paths_per_s(probe, speed))
        if len(setups) < samples and measured_s >= len(setups) * args.seconds / samples:
            setups.append(setup_probe(args))
    while len(setups) < samples:
        setups.append(setup_probe(args))

    def middle(name):
        return median(v[name] for v in values)

    trained = ([s["train_paths_per_s"] for s in setups] + retrained
               if workload.trains_in_setup else [v["train_paths_per_s"] for v in values])
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": middle("wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_paths_per_s": median(trained),
        "serve_paths_per_s": middle("serve_paths_per_s"),
        "latency_tail_ms": middle("latency_tail_ms"),
    }
    notes = {"passes": len(passes),
             "latency_p50_ms": middle("latency_p50_ms"),
             "latency_tail_percentile": round(tail_percentile(values[0]["latency_samples"]), 2),
             "latency_samples_per_pass": values[0]["latency_samples"],
             "setup_samples_s": [round(s["setup_s"], 4) for s in setups],
             "pass_wall_s": [round(p.seconds, 4) for p in passes],
             "host_speed_factor": [round(v["speed"], 4) for v in values],
             "train_paths_per_s_samples": [round(t, 1) for t in trained],
             "tt_mae_s": median(p.tt_mae for p in passes)}
    for key, value in passes[0].extra.items():
        if not isinstance(value, dict):
            notes[key] = median(p.extra[key] for p in passes)
    return passes, metrics, notes


def per_layer(workload, probe):
    """One untraced pass, then one pass with every layer wrapped."""
    probe.uninstall()
    reference = getattr(workload, "reference_runner", None)
    untraced = []
    if reference:
        # A suite pass outlasts a run, so the untraced reference is one runner.
        began = time.perf_counter()
        workload.run_runner(reference)
        untraced_s = time.perf_counter() - began
    else:
        untraced.append(workload.run_pass())
        untraced_s = untraced[0].seconds

    tracer = Tracer().install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.perf_counter()
        traced = workload.run_pass()
        wall_s = time.perf_counter() - started
    tracer.uninstall()

    traced_s = traced.extra["runner_s"][reference[0]] if reference else traced.seconds
    metrics = layer_metrics(tracer, caught)
    metrics["trace.coverage"] = tracer.top_level_s / wall_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return untraced + [traced], metrics, {"untraced_s": untraced_s, "traced_s": traced_s}


def layer_metrics(tracer, caught):
    t, c = tracer.total_s, tracer.counts
    m = {}
    for name, runner, _, _ in RUNNERS:
        m[f"evaluation.{name}_s"] = t(f"evaluation.{runner.__name__}")

    builds, distinct = tracer.useful("dataset")
    m.update({"datasets.builds": builds, "datasets.build_keys": distinct,
              "datasets.build_s": t("datasets.build_city_dataset"),
              "datasets.build_useful_frac": ratio(distinct, builds)})

    m.update({"trajectory.simulate_s": t("trajectory.TripSimulator.simulate"),
              "trajectory.trips": c["trips"],
              "trajectory.match_s": t("trajectory.HMMMapMatcher.match_batch"),
              "trajectory.fixes": c["fixes"],
              "trajectory.unmatched_frac": ratio(c["unmatched"], c["traces"])})
    lookups = c["dijkstra_hits"] + c["dijkstra_misses"]
    m.update({"roadnet.dijkstra_hits": c["dijkstra_hits"],
              "roadnet.dijkstra_misses": c["dijkstra_misses"],
              "roadnet.dijkstra_hit_rate": ratio(c["dijkstra_hits"], lookups)})

    fits, distinct = tracer.useful("node2vec")
    m.update({"graph.node2vec_fits": fits, "graph.node2vec_keys": distinct,
              "graph.node2vec_s": t("graph.Node2Vec.fit"),
              "graph.node2vec_useful_frac": ratio(distinct, fits),
              "graph.walks_s": t("graph.RandomWalker.generate_walks"),
              "graph.sgns_s": t("graph.SkipGramTrainer.train")})

    fits, distinct = tracer.useful("wsccl_fit")
    steps = tracer.durations[TRAIN_STEP_SPAN]
    m.update({"core.shared_resources_s": t("core.SharedResources.__init__"),
              "core.wsccl_fits": fits, "core.wsccl_fit_keys": distinct,
              "core.wsccl_fit_useful_frac": ratio(distinct, fits),
              "core.wsccl_fit_s": tracer.groups[FIT_GROUP][1],
              "core.experts_s": t("core.train_experts"),
              "core.scoring_s": t("core.difficulty_scores"),
              "core.train_steps": len(steps), "core.train_paths": c["train_paths"],
              "core.train_step_s": sum(steps),
              "core.train_step_p50_ms": percentile_ms(steps, 50)})

    m.update({"nn.backward_s": t("nn.Tensor.backward"),
              "nn.optimizer_s": t("nn.Adam.step"),
              "nn.clip_s": t("nn.clip_grad_norm")})

    g = tracer.groups
    m.update({"baselines.unsup_fit_s": g["baselines.unsup_fit"][1],
              "baselines.sup_fit_s": g["baselines.sup_fit"][1],
              "baselines.sup_predict_s": g["baselines.sup_predict"][1]})

    m.update({"serving.requests": c["requests"], "serving.paths": c["served_paths"],
              "serving.embed_s": t(EMBED_SPAN),
              "serving.encode_s": t("serving.PathEmbeddingService._encode_batch"),
              "serving.cache_hit_rate": ratio(c["cache_hits"],
                                              c["cache_hits"] + c["cache_misses"]),
              "serving.evictions": c["evictions"],
              "serving.padding_efficiency": ratio(c["real_steps"], c["padded_steps"]),
              "serving.batches": c["batches"]})

    m.update({"downstream.gbm_fits": g["downstream.gbm_fit"][0],
              "downstream.gbm_fit_s": g["downstream.gbm_fit"][1],
              "downstream.gbm_predict_s": g["downstream.gbm_predict"][1],
              "downstream.tree_fits": tracer.calls("downstream.DecisionTreeRegressor.fit"),
              "downstream.tree_fit_s": t("downstream.DecisionTreeRegressor.fit"),
              "downstream.rank_metrics_s": g["downstream.rank_metrics"][1]})

    self_s = tracer.self_s_by_layer()
    runtime_warnings = dict.fromkeys(LAYERS, 0)
    for warning in caught:
        parts = Path(warning.filename).parts
        if issubclass(warning.category, RuntimeWarning) and "repro" in parts:
            layer = parts[parts.index("repro") + 1]
            if layer in runtime_warnings:
                runtime_warnings[layer] += 1
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.runtime_warnings"] = runtime_warnings[layer]
    return m


def metric_unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_rate", "coverage", "_efficiency")):
        return "fraction"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    probe = Tracer().install(only=PROBE_SPANS)
    workload.setup(args.seed)
    elapsed = time.perf_counter() - STARTED
    setup = {"setup_s": elapsed * SETUP_SPEED.stop().factor(),
             "train_paths_per_s": train_paths_per_s(probe, SETUP_SPEED)}
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    if args.trace:
        passes, metrics, notes = per_layer(workload, probe)
    else:
        passes, metrics, notes = end_to_end(args, workload, probe, setup)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "operation": workload.operation, **notes}))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {metric_unit(name)}")
    print(f"error_rate {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} {workload.operation}s failed)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
