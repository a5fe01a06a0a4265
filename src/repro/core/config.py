"""Hyper-parameter configuration for WSCCL.

The defaults follow the paper's implementation settings (§VII-A6) scaled down
for the CPU-only numpy substrate: the paper's 128-dimensional embeddings and
2-layer/128-unit LSTM become 16–32-dimensional by default.  Benchmarks and
examples can raise or lower the scale through a single config object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._checks import check_integer, check_real

__all__ = ["WSCCLConfig"]

#: Each integer field's least value: a contrastive batch needs two paths and
#: a node2vec walk two nodes.
_INTEGER_LOWS = dict.fromkeys((
    "road_type_dim", "lanes_dim", "one_way_dim", "signals_dim", "topology_dim",
    "temporal_dim", "hidden_dim", "lstm_layers", "epochs",
    "local_edges_per_path", "num_meta_sets", "num_stages", "expert_epochs",
    "final_stage_epochs", "slots_per_day", "node2vec_walks",
    "node2vec_window", "node2vec_epochs",
), 1) | {"batch_size": 2, "node2vec_walk_length": 2, "seed": 0}
_POSITIVE_FLOATS = ("learning_rate", "temperature", "grad_clip")


@dataclass
class WSCCLConfig:
    """All WSCCL hyper-parameters.

    Attributes follow the paper's notation where possible.

    Embedding dimensions
    --------------------
    road_type_dim, lanes_dim, one_way_dim, signals_dim:
        ``d_rt``, ``d_l``, ``d_o``, ``d_ts`` of Eq. 3 (paper: 64/32/16/16).
    topology_dim:
        ``d_top``: size of the per-edge topology feature, i.e. the
        concatenation of the two endpoint node2vec embeddings (paper: 128).
    temporal_dim:
        ``d_tem``: node2vec dimensionality on the temporal graph (paper: 128).
    hidden_dim:
        ``d_h``: LSTM hidden size and the TPR dimensionality (paper: 128).

    Training
    --------
    lstm_layers:
        Number of stacked LSTM layers (paper: 2).
    learning_rate:
        Adam learning rate (paper: 3e-4).
    batch_size:
        Contrastive minibatch size (paper: 32).
    epochs:
        Number of passes over the unlabeled corpus for the basic WSC model.
    lambda_balance:
        λ of Eq. 12 weighting global vs. local WSC loss (paper: 0.8).
    temperature:
        Softmax temperature applied to cosine similarities in both losses.
    local_edges_per_path:
        How many positive/negative edges are sampled per query for Eq. 11.
    grad_clip:
        Global gradient-norm clip.

    Curriculum
    ----------
    num_meta_sets:
        N, the number of length-sorted meta-sets / expert models (paper: 10).
    num_stages:
        M, the number of curriculum stages; the paper keeps M = N.
    expert_epochs:
        Training epochs for each expert model.
    final_stage_epochs:
        Epochs of the final stage S_{M+1} that covers the full training set.

    Temporal graph scale
    --------------------
    slots_per_day:
        Number of time slots per day.  The paper uses 288 five-minute slots;
        48 (30-minute slots) keeps the temporal graph small by default while
        preserving the construction.  Set to 288 for paper fidelity.

    node2vec
    --------
    node2vec_walks, node2vec_walk_length, node2vec_window, node2vec_epochs:
        Walk-corpus parameters shared by the temporal graph and road network
        embedding runs.
    """

    # Embedding dimensions
    road_type_dim: int = 8
    lanes_dim: int = 4
    one_way_dim: int = 2
    signals_dim: int = 2
    topology_dim: int = 16
    temporal_dim: int = 16
    hidden_dim: int = 32

    # Encoder / training
    lstm_layers: int = 1
    learning_rate: float = 3e-4
    batch_size: int = 16
    epochs: int = 3
    lambda_balance: float = 0.8
    temperature: float = 0.1
    local_edges_per_path: int = 2
    grad_clip: float = 5.0

    # Curriculum
    num_meta_sets: int = 4
    num_stages: int = 4
    expert_epochs: int = 1
    final_stage_epochs: int = 1

    # Temporal graph scale
    slots_per_day: int = 48

    # node2vec
    node2vec_walks: int = 3
    node2vec_walk_length: int = 10
    node2vec_window: int = 3
    node2vec_epochs: int = 1

    # Reproducibility
    seed: int = 0

    def __post_init__(self):
        for name, low in _INTEGER_LOWS.items():
            check_integer(name, getattr(self, name), low=low)
        for name in _POSITIVE_FLOATS:
            check_real(name, getattr(self, name), above=0)
        check_real("lambda_balance", self.lambda_balance, at_least=0, at_most=1)
        if self.topology_dim % 2:
            raise ValueError("topology_dim must be even (two endpoint embeddings), "
                             f"got {self.topology_dim!r}")
        if (24 * 60) % self.slots_per_day != 0:
            # Any divisor of 1440 minutes works; 288 is the paper's default.
            raise ValueError("slots_per_day must divide 1440 minutes")

    # ------------------------------------------------------------------
    @property
    def spatial_type_dim(self):
        """Dimensionality of the concatenated categorical embeddings (Eq. 4)."""
        return self.road_type_dim + self.lanes_dim + self.one_way_dim + self.signals_dim

    @property
    def spatial_dim(self):
        """``d`` of Eq. 6: topology feature plus categorical embeddings."""
        return self.topology_dim + self.spatial_type_dim

    @property
    def encoder_input_dim(self):
        """Per-edge LSTM input: temporal embedding plus spatial embedding."""
        return self.temporal_dim + self.spatial_dim

    def with_overrides(self, **kwargs):
        """Return a copy of this config with some fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def test_scale(cls):
        """Very small configuration for unit tests."""
        return cls(
            road_type_dim=4,
            lanes_dim=2,
            one_way_dim=2,
            signals_dim=2,
            topology_dim=8,
            temporal_dim=8,
            hidden_dim=12,
            batch_size=8,
            epochs=1,
            num_meta_sets=2,
            num_stages=2,
            slots_per_day=24,
            node2vec_walks=1,
            node2vec_walk_length=5,
        )
