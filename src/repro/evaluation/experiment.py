"""Experiment configuration and model factories for the evaluation harness.

The harness reproduces each table/figure of the paper at a reduced scale.
:class:`HarnessConfig` bundles every knob a table runner needs; the factory
functions build WSCCL variants and baselines uniformly so a table runner is
just "for each method: fit, evaluate, collect a row".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._checks import check_integer, check_real
from .._memo import remember
from ..baselines import (
    BERTPathModel,
    DGIPathModel,
    DeepGTTModel,
    GCNTravelTimeModel,
    GMIPathModel,
    HMTRLModel,
    InfoGraphModel,
    MemoryBankModel,
    Node2vecPathModel,
    PathRankModel,
    PIMModel,
    PIMTemporalModel,
    STGCNTravelTimeModel,
)
from ..core import SharedResources, WSCCL, WSCCLConfig
from ..datasets import DatasetScale, build_city_dataset

__all__ = [
    "HarnessConfig",
    "build_dataset",
    "fit_wsccl",
    "fit_unsupervised_baseline",
    "build_supervised_baseline",
    "UNSUPERVISED_BASELINES",
    "SUPERVISED_BASELINES",
    "EDGE_SUM_BASELINES",
]


@dataclass
class HarnessConfig:
    """Scale and hyper-parameter knobs for one harness run.

    The defaults are the tiny scale that ``tests/golden/`` pins byte for
    byte (about a second per table on CPU); :meth:`benchmark` is larger and
    examples use slightly larger values.
    """

    scale: DatasetScale = field(default_factory=DatasetScale.tiny)
    wsccl: WSCCLConfig = field(default_factory=WSCCLConfig.test_scale)
    #: Where corpus paths come from: "simulator" uses ground-truth simulator
    #: paths; "mapmatched" recovers each path from a noisy GPS trace with the
    #: HMM map matcher (the paper's real ingestion regime).
    paths_from: str = "simulator"
    baseline_dim: int = 16
    baseline_epochs: int = 1
    supervised_epochs: int = 2
    max_batches: int = 6
    n_estimators: int = 20
    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name in ("baseline_dim", "baseline_epochs", "supervised_epochs",
                     "max_batches", "n_estimators"):
            check_integer(name, getattr(self, name), low=1)
        check_integer("seed", self.seed, low=0)
        check_real("test_fraction", self.test_fraction, above=0, below=1)
        if self.paths_from not in ("simulator", "mapmatched"):
            raise ValueError("paths_from must be 'simulator' or 'mapmatched', "
                             f"got {self.paths_from!r}")

    @classmethod
    def benchmark(cls):
        """Configuration used by ``perfbench/``.

        Sized so that one table reproduces in a few seconds on a laptop CPU.
        The paper's qualitative orderings do not reliably hold at this
        scale: over seeds 0-4, WSCCL has the best Table III travel-time MAE
        in 1 of 5 and the best ranking τ in 1 of 5, and one row's MAE
        spreads across seeds more than the gaps between rows.
        """
        return cls(
            scale=DatasetScale.benchmark(),
            wsccl=WSCCLConfig(
                hidden_dim=32,
                temporal_dim=16,
                topology_dim=16,
                epochs=2,
                batch_size=16,
                num_meta_sets=3,
                num_stages=3,
                final_stage_epochs=2,
                slots_per_day=48,
            ),
            baseline_dim=32,
            baseline_epochs=2,
            supervised_epochs=3,
            max_batches=12,
            n_estimators=30,
        )

    @classmethod
    def example(cls):
        """Larger configuration used by the ``examples/`` scripts."""
        return cls(
            scale=DatasetScale.small(),
            wsccl=WSCCLConfig().with_overrides(epochs=2),
            baseline_epochs=2,
            supervised_epochs=3,
            max_batches=20,
            n_estimators=40,
        )


def build_dataset(city_name, config):
    """The synthetic dataset for one of the three cities, built once per process.

    Every call with the same city, ``config.scale`` and ``config.paths_from``
    returns the same :class:`~repro.datasets.CityDataset`, so callers must
    treat it as read-only.
    """
    return remember(
        (city_name, config.scale, config.paths_from),
        lambda: build_city_dataset(city_name, scale=config.scale, seed=None,
                                   paths_from=config.paths_from))


# ----------------------------------------------------------------------
# WSCCL variants
# ----------------------------------------------------------------------
#: The WSCCL variants :func:`fit_wsccl` trains.
_WSCCL_VARIANTS = ("full", "no_cl", "heuristic", "no_global", "no_local", "no_temporal")


def _check_name(kind, name, valid):
    if name not in valid:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {', '.join(valid)}")


def fit_wsccl(city, config, variant="full", weak_labels="pop", resources=None):
    """Train a WSCCL variant on a city's unlabeled corpus.

    ``variant`` is one of:

    * ``"full"`` — the complete WSCCL (learned curriculum, both losses),
    * ``"no_cl"`` — WSC without curriculum learning,
    * ``"heuristic"`` — the length-sorted heuristic curriculum (Table V),
    * ``"no_global"`` — λ = 0 (local loss only, Table VI),
    * ``"no_local"`` — λ = 1 (global loss only, Table VI),
    * ``"no_temporal"`` — WSCCL-NT, temporal embedding zeroed (Table VIII).

    ``weak_labels`` selects POP or TCI weak labels (Table VII).  Both names
    are checked before any work.
    """
    _check_name("WSCCL variant", variant, _WSCCL_VARIANTS)
    _check_name("weak label type", weak_labels, ("pop", "tci"))
    wsccl_config = config.wsccl
    if variant == "no_global":
        wsccl_config = wsccl_config.with_overrides(lambda_balance=0.0)
    elif variant == "no_local":
        wsccl_config = wsccl_config.with_overrides(lambda_balance=1.0)

    dataset = city.unlabeled
    if weak_labels == "tci":
        dataset = dataset.relabel(city.tci_labeler)

    resources = resources or SharedResources(city.network, wsccl_config)
    model = WSCCL(
        city.network, config=wsccl_config, resources=resources,
        use_temporal=(variant != "no_temporal"),
    )
    if variant == "heuristic":
        model.fit_with_heuristic_curriculum(dataset, batches_per_epoch=config.max_batches)
    elif variant == "no_cl":
        model.fit_without_curriculum(dataset, batches_per_epoch=config.max_batches)
    else:
        model.fit(dataset, batches_per_epoch=config.max_batches,
                  expert_batches=config.max_batches)
    return model


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
UNSUPERVISED_BASELINES = ("Node2vec", "DGI", "GMI", "MB", "BERT", "InfoGraph", "PIM")
SUPERVISED_BASELINES = ("DeepGTT", "HMTRL", "PathRank")
EDGE_SUM_BASELINES = ("GCN", "STGCN")


def _graph_node_model(cls):
    return lambda c: cls(dim=c.baseline_dim, seed=c.seed)


def _sequence_model(cls):
    return lambda c: cls(dim=c.baseline_dim, epochs=c.baseline_epochs, seed=c.seed)


#: Name -> constructor of every unsupervised baseline, given the config.
_UNSUPERVISED_FACTORIES = {
    "Node2vec": _graph_node_model(Node2vecPathModel),
    "DGI": _graph_node_model(DGIPathModel),
    "GMI": _graph_node_model(GMIPathModel),
    "MB": _sequence_model(MemoryBankModel),
    "BERT": _sequence_model(BERTPathModel),
    "InfoGraph": _sequence_model(InfoGraphModel),
    "PIM": _sequence_model(PIMModel),
    "PIM-Temporal": _sequence_model(PIMTemporalModel),
}

#: Name -> constructor of every supervised and edge-sum baseline, given the
#: config and the optional pre-trained encoder state (PathRank's only).
_SUPERVISED_FACTORIES = {
    "DeepGTT": lambda c, state: DeepGTTModel(
        config=c.wsccl, epochs=c.supervised_epochs, seed=c.seed),
    "HMTRL": lambda c, state: HMTRLModel(
        config=c.wsccl, epochs=c.supervised_epochs, seed=c.seed),
    "PathRank": lambda c, state: PathRankModel(
        config=c.wsccl, epochs=c.supervised_epochs, seed=c.seed, pretrained_state=state),
    "GCN": lambda c, state: GCNTravelTimeModel(
        hidden_dim=c.baseline_dim, epochs=c.supervised_epochs * 3, seed=c.seed),
    "STGCN": lambda c, state: STGCNTravelTimeModel(
        hidden_dim=c.baseline_dim, epochs=c.supervised_epochs * 3, seed=c.seed),
}


def fit_unsupervised_baseline(name, city, config):
    """Fit one of the unsupervised baselines on a city's unlabeled corpus."""
    _check_name("unsupervised baseline", name, tuple(_UNSUPERVISED_FACTORIES))
    return _UNSUPERVISED_FACTORIES[name](config).fit(city, max_batches=config.max_batches)


def build_supervised_baseline(name, config, pretrained_state=None):
    """Construct (but do not train) a supervised baseline model."""
    _check_name("supervised baseline", name, tuple(_SUPERVISED_FACTORIES))
    return _SUPERVISED_FACTORIES[name](config, pretrained_state)
