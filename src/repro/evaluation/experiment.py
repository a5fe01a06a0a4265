"""Experiment configuration and model factories for the evaluation harness.

The harness reproduces each table/figure of the paper at a reduced scale.
:class:`HarnessConfig` bundles every knob a table runner needs; the factory
functions build WSCCL variants and baselines uniformly so a table runner is
just "for each method: fit, evaluate, collect a row".
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (isinstance(self.test_fraction, numbers.Real)
                and 0.0 < self.test_fraction < 1.0):
            raise ValueError(
                f"test_fraction must be in (0, 1), got {self.test_fraction!r}")
        if self.paths_from not in ("simulator", "mapmatched"):
            raise ValueError("paths_from must be 'simulator' or 'mapmatched', "
                             f"got {self.paths_from!r}")

    @classmethod
    def benchmark(cls):
        """Configuration used by ``perfbench/``.

        Sized so that one table reproduces in a few seconds on a laptop CPU
        while leaving WSCCL and the baselines enough training signal for
        the paper's qualitative orderings to emerge.
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
    """Build the synthetic dataset for one of the three cities."""
    return build_city_dataset(city_name, scale=config.scale, seed=None,
                              paths_from=config.paths_from)


# ----------------------------------------------------------------------
# WSCCL variants
# ----------------------------------------------------------------------
def fit_wsccl(city, config, variant="full", weak_labels="pop", resources=None):
    """Train a WSCCL variant on a city's unlabeled corpus.

    ``variant`` is one of:

    * ``"full"`` — the complete WSCCL (learned curriculum, both losses),
    * ``"no_cl"`` — WSC without curriculum learning,
    * ``"heuristic"`` — the length-sorted heuristic curriculum (Table V),
    * ``"no_global"`` — λ = 0 (local loss only, Table VI),
    * ``"no_local"`` — λ = 1 (global loss only, Table VI),
    * ``"no_temporal"`` — WSCCL-NT, temporal embedding zeroed (Table VIII).

    ``weak_labels`` selects POP or TCI weak labels (Table VII).
    """
    wsccl_config = config.wsccl
    if variant == "no_global":
        wsccl_config = wsccl_config.with_overrides(lambda_balance=0.0)
    elif variant == "no_local":
        wsccl_config = wsccl_config.with_overrides(lambda_balance=1.0)

    dataset = city.unlabeled
    if weak_labels == "tci":
        dataset = dataset.relabel(city.tci_labeler)
    elif weak_labels != "pop":
        raise ValueError(f"unknown weak label type {weak_labels!r}")

    resources = resources or SharedResources(city.network, wsccl_config)
    model = WSCCL(
        city.network, config=wsccl_config, resources=resources,
        use_temporal=(variant != "no_temporal"),
    )
    if variant in ("full", "no_global", "no_local", "no_temporal"):
        model.fit(dataset, batches_per_epoch=config.max_batches,
                  expert_batches=config.max_batches)
    elif variant == "heuristic":
        model.fit_with_heuristic_curriculum(dataset, batches_per_epoch=config.max_batches)
    elif variant == "no_cl":
        model.fit_without_curriculum(dataset, batches_per_epoch=config.max_batches)
    else:
        raise ValueError(f"unknown WSCCL variant {variant!r}")
    return model


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
UNSUPERVISED_BASELINES = ("Node2vec", "DGI", "GMI", "MB", "BERT", "InfoGraph", "PIM")
SUPERVISED_BASELINES = ("DeepGTT", "HMTRL", "PathRank")
EDGE_SUM_BASELINES = ("GCN", "STGCN")


def fit_unsupervised_baseline(name, city, config):
    """Fit one of the unsupervised baselines on a city's unlabeled corpus."""
    seed = config.seed
    if name == "Node2vec":
        return Node2vecPathModel(dim=config.baseline_dim, seed=seed).fit(city)
    if name == "DGI":
        return DGIPathModel(dim=config.baseline_dim, seed=seed).fit(city)
    if name == "GMI":
        return GMIPathModel(dim=config.baseline_dim, seed=seed).fit(city)
    if name == "MB":
        return MemoryBankModel(dim=config.baseline_dim, epochs=config.baseline_epochs,
                               seed=seed).fit(city, max_batches=config.max_batches)
    if name == "BERT":
        return BERTPathModel(dim=config.baseline_dim, epochs=config.baseline_epochs,
                             seed=seed).fit(city, max_batches=config.max_batches)
    if name == "InfoGraph":
        return InfoGraphModel(dim=config.baseline_dim, epochs=config.baseline_epochs,
                              seed=seed).fit(city, max_batches=config.max_batches)
    if name == "PIM":
        return PIMModel(dim=config.baseline_dim, epochs=config.baseline_epochs,
                        seed=seed).fit(city, max_batches=config.max_batches)
    if name == "PIM-Temporal":
        return PIMTemporalModel(dim=config.baseline_dim, epochs=config.baseline_epochs,
                                seed=seed).fit(city, max_batches=config.max_batches)
    raise KeyError(f"unknown unsupervised baseline {name!r}")


def build_supervised_baseline(name, config, pretrained_state=None):
    """Construct (but do not train) a supervised baseline model."""
    seed = config.seed
    if name == "DeepGTT":
        return DeepGTTModel(config=config.wsccl, epochs=config.supervised_epochs, seed=seed)
    if name == "HMTRL":
        return HMTRLModel(config=config.wsccl, epochs=config.supervised_epochs, seed=seed)
    if name == "PathRank":
        return PathRankModel(config=config.wsccl, epochs=config.supervised_epochs,
                             seed=seed, pretrained_state=pretrained_state)
    if name == "GCN":
        return GCNTravelTimeModel(hidden_dim=config.baseline_dim,
                                  epochs=config.supervised_epochs * 3, seed=seed)
    if name == "STGCN":
        return STGCNTravelTimeModel(hidden_dim=config.baseline_dim,
                                    epochs=config.supervised_epochs * 3, seed=seed)
    raise KeyError(f"unknown supervised baseline {name!r}")
