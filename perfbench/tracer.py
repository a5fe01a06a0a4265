"""Outside-in tracer: wraps the public functions and methods of ``repro``.

:class:`Tracer` patches every public function and every public method of a
public class defined in the benchmark's layers (``repro.<layer>`` and its
submodules).  A function that another module imported by name is replaced at
that use site too, so ``repro.evaluation.harness`` calls the wrapped
``fit_wsccl``, ``evaluate_travel_time`` and so on.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores every original.

Each call is a span.  Spans nest through a stack, and are aggregated in
memory per name as ``[calls, total seconds, seconds inside child spans]``, so
a span's self time is its total minus its children.  A few boundaries also
record counts (paths, fixes, cache hits) and a fingerprint of the inputs that
determine the artifact they build, so the trace can say how much work was
repeated.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

LAYERS = ("evaluation", "datasets", "trajectory", "roadnet", "graph", "core",
          "nn", "baselines", "serving", "downstream")

# Autograd primitives and per-element accessors run millions of times per
# suite; wrapping them would measure the wrapper.  Their time stays in the
# self time of the caller.
_NOT_WRAPPED = {
    "repro.nn.functional": "*",
    "repro.nn.init": "*",
    "repro.nn.tensor": "*",
    "repro.nn.module": "*",
    "repro.nn.layers": "*",
    "repro.nn.recurrent": "*",
    "repro.roadnet.network": "*",
    "repro.datasets.temporal_paths": ("TemporalPath",),
}
# Spans whose every duration, and start, is kept: for percentiles and for
# scaling each call by the host's speed at the time.
KEEP_DURATIONS = ("core.WSCTrainer.train_step", "serving.PathEmbeddingService.embed")
# Wrapped although not public by name.
_EXTRA_METHODS = {
    "repro.core.model": (("SharedResources", "__init__"),),
    "repro.serving.service": (("PathEmbeddingService", "_encode_batch"),),
    "repro.nn.tensor": (("Tensor", "backward"),),
}


def digest(*parts):
    """A short stable hash of ``repr`` of the parts."""
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


def network_digest(network):
    """Hash of a road network's topology, coordinates and edge features."""
    return digest(
        [network.edge_endpoints(e) for e in range(network.num_edges)],
        [network.node_coordinates(n) for n in range(network.num_nodes)],
        network.edge_feature_matrix().tobytes(),
    )


def dataset_digest(dataset):
    """Hash of a temporal-path dataset: paths, departures and weak labels."""
    return digest(
        [(tuple(tp.path), repr(tp.departure_time)) for tp in dataset.temporal_paths],
        type(dataset.weak_labeler).__name__,
        dataset.weak_labels.tobytes(),
    )


class Tracer:
    """Span and counter recorder installed by patching ``repro``."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.keys = defaultdict(list)
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.starts = {name: [] for name in KEEP_DURATIONS}
        self.groups = defaultdict(lambda: [0, 0.0])
        self.top_level_s = 0.0
        self._depth = defaultdict(int)
        self._stack = []
        self._patches = []
        self._fingerprints = {}

    # ------------------------------------------------------------------
    def _wrap(self, name, func):
        stats, stack, durations, starts = self.stats, self._stack, self.durations, self.starts
        before, after = COUNTERS.get(name, (None, None))
        kind, fingerprint = self._fingerprints.get(name, (None, None))
        keys = self.keys
        group = span_group(name)
        depth, groups = self._depth, self.groups
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if fingerprint:
                keys[kind].append(fingerprint(*args, **kwargs))
            state = before(tracer, *args, **kwargs) if before else None
            if group:
                depth[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat = stats[name]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_level_s += elapsed
                if name in durations:
                    durations[name].append(elapsed)
                    starts[name].append(start)
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        groups[group][0] += 1
                        groups[group][1] += elapsed
            if after:
                after(tracer, state, result)
            return result

        return wrapper

    def install(self, only=None):
        """Wrap the public callables of every layer; returns ``self``.

        ``only`` restricts wrapping to a set of span names, and then the
        (costlier) input fingerprints are not taken.
        """
        self._fingerprints = FINGERPRINTS if only is None else {}
        replaced = {}
        for module in _layer_modules():
            layer = module.__name__.split(".")[1]
            skip = _NOT_WRAPPED.get(module.__name__, ())
            targets = []
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if skip == "*" or attr in skip or attr.startswith("_"):
                    continue
                if inspect.isfunction(value):
                    targets.append((f"{layer}.{attr}", module, attr))
                elif inspect.isclass(value):
                    targets.extend((f"{layer}.{value.__name__}.{method}", value, method)
                                   for method in _public_methods(value))
            for class_name, method in _EXTRA_METHODS.get(module.__name__, ()):
                cls = getattr(module, class_name)
                targets.append((f"{layer}.{class_name}.{method}", cls, method))
            for name, owner, attr in targets:
                if only is not None and name not in only:
                    continue
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original)
                self._patch(owner, attr, original, wrapped)
                replaced[id(original)] = (original, wrapped)
        # Use sites that imported a wrapped function by name.
        for module in _all_repro_modules():
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])
        return self

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def reset(self):
        """Drop everything recorded so far; the patches stay installed."""
        self.stats.clear()
        self.groups.clear()
        self.counts.clear()
        self.keys.clear()
        for kept in (*self.durations.values(), *self.starts.values()):
            kept.clear()
        self.top_level_s = 0.0

    def uninstall(self):
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def total_s(self, *names):
        return sum((self.stats[name][1] for name in names if name in self.stats), 0.0)

    def calls(self, *names):
        return sum(self.stats[name][0] for name in names if name in self.stats)

    def self_s_by_layer(self):
        totals = defaultdict(float)
        for name, (_, total, child) in self.stats.items():
            totals[name.split(".")[0]] += total - child
        return totals

    def useful(self, kind):
        """``(calls, distinct input fingerprints)`` for one artifact kind."""
        keys = self.keys[kind]
        return len(keys), len(set(keys))


#: Span groups: ``(layer, method or function names, group)``.  A group's
#: time counts only its outermost spans, so a method calling another of the
#: same group (``predict`` calling ``predict_proba``) is not counted twice.
_GROUPS = (
    ("baselines", ("fit",), "baselines.unsup_fit"),
    ("baselines", ("fit_supervised",), "baselines.sup_fit"),
    ("baselines", ("predict",), "baselines.sup_predict"),
    ("downstream", ("GradientBoostingRegressor.fit", "GradientBoostingClassifier.fit"),
     "downstream.gbm_fit"),
    ("downstream", ("GradientBoostingRegressor.predict", "GradientBoostingClassifier.predict",
                    "GradientBoostingClassifier.predict_proba"), "downstream.gbm_predict"),
    ("downstream", ("kendall_tau", "spearman_rho", "grouped_rank_correlation"),
     "downstream.rank_metrics"),
    ("core", ("WSCCL.fit", "WSCCL.fit_with_heuristic_curriculum",
              "WSCCL.fit_without_curriculum"), "core.wsccl_fit"),
)


def span_group(name):
    layer, _, rest = name.partition(".")
    for group_layer, suffixes, group in _GROUPS:
        if layer == group_layer and any(
                rest == s or rest.endswith("." + s) for s in suffixes):
            return group
    return None


def _public_methods(cls):
    for attr, value in vars(cls).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            yield attr


def _layer_modules():
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__, f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


def _all_repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


# ----------------------------------------------------------------------
# Fingerprints of the inputs that determine an artifact, and counts, recorded
# at a few layer boundaries.
# ----------------------------------------------------------------------
def _dataset_key(*args, **kwargs):
    from repro.datasets.synthetic import build_city_dataset
    call = inspect.signature(inspect.unwrap(build_city_dataset)).bind(*args, **kwargs)
    call.apply_defaults()
    return digest(*(call.arguments[k] for k in ("name", "scale", "seed", "paths_from")))


def _node2vec_key(self, neighbors_fn, num_nodes):
    adjacency = [tuple(neighbors_fn(node)) for node in range(num_nodes)]
    return digest(sorted(vars(self.config).items()), num_nodes, adjacency)


def _wsccl_fit_key(method):
    def key(self, dataset, *args, **kwargs):
        return digest(method, repr(self.config), self.use_temporal, self.encoder_type,
                      network_digest(self.network), dataset_digest(dataset), args,
                      sorted(kwargs.items()))
    return key


#: span name -> (artifact kind, function of the call's arguments)
FINGERPRINTS = {
    "datasets.build_city_dataset": ("dataset", _dataset_key),
    "graph.Node2Vec.fit": ("node2vec", _node2vec_key),
    **{f"core.WSCCL.{method}": ("wsccl_fit", _wsccl_fit_key(method))
       for method in ("fit", "fit_with_heuristic_curriculum", "fit_without_curriculum")},
}


def _simulate_after(tracer, state, trips):
    tracer.counts["trips"] += len(trips)


def _match_before(tracer, self, trajectories):
    cache = self.dijkstra_cache
    tracer.counts["fixes"] += sum(len(t) for t in trajectories)
    tracer.counts["traces"] += len(trajectories)
    return self, cache.hits, cache.misses


def _match_after(tracer, state, matched):
    matcher, hits, misses = state
    cache = matcher.dijkstra_cache
    tracer.counts["unmatched"] += sum(1 for path in matched if not path)
    tracer.counts["dijkstra_hits"] += cache.hits - hits
    tracer.counts["dijkstra_misses"] += cache.misses - misses


def _train_step_before(tracer, self, batch, weak_labeler):
    tracer.counts["train_paths"] += len(batch)


def _serving_snapshot(service):
    metrics, cache = service.metrics, service.cache
    cache_counts = (cache.hits, cache.misses, cache.evictions) if cache else (0, 0, 0)
    return (metrics.batches, metrics.real_steps, metrics.padded_steps) + cache_counts


def _embed_before(tracer, self, temporal_paths):
    return self, _serving_snapshot(self)


def _embed_after(tracer, state, result):
    service, before = state
    delta = [now - then for now, then in zip(_serving_snapshot(service), before)]
    for name, value in zip(("batches", "real_steps", "padded_steps", "cache_hits",
                            "cache_misses", "evictions"), delta):
        tracer.counts[name] += value
    tracer.counts["requests"] += 1
    tracer.counts["served_paths"] += len(result)


#: span name -> (before hook, after hook); ``before`` returns the state
#: ``after`` receives with the call's result.
COUNTERS = {
    "trajectory.TripSimulator.simulate": (None, _simulate_after),
    "trajectory.HMMMapMatcher.match_batch": (_match_before, _match_after),
    "core.WSCTrainer.train_step": (_train_step_before, None),
    "serving.PathEmbeddingService.embed": (_embed_before, _embed_after),
}
