"""Model persistence: save and load trained WSCCL encoders.

The LSTM encoder's state (all trainable parameters), the frozen node2vec
features, the configuration and a small meta record (``use_temporal`` and the
network's edge count) are stored in a single ``.npz`` archive so a trained
model can be shipped to downstream users without retraining node2vec or the
contrastive objective — the deployment mode the paper's "generic TPR" pitch
implies.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import WSCCLConfig
from .encoder import TemporalPathEncoder
from .model import SharedResources

__all__ = ["save_model", "load_model"]

_STATE_PREFIX = "state::"
_RESOURCE_TOPOLOGY = "resource::topology"
_RESOURCE_TEMPORAL = "resource::temporal"
_CONFIG_KEY = "config_json"
_META_KEY = "meta_json"


def save_model(path, model):
    """Persist a trained :class:`~repro.core.encoder.TemporalPathEncoder`.

    Parameters
    ----------
    path:
        Destination ``.npz`` file path.
    model:
        A :class:`~repro.core.encoder.TemporalPathEncoder`, or a
        :class:`~repro.core.wsccl.WSCCL` (its ``model`` is saved with its
        config).
    """
    encoder = getattr(model, "model", model)
    if type(encoder) is not TemporalPathEncoder:
        raise TypeError("save_model expects a TemporalPathEncoder or a WSCCL instance")

    arrays = {
        _RESOURCE_TOPOLOGY: encoder.spatial.topology_features,
        _RESOURCE_TEMPORAL: encoder.temporal.embeddings,
    }
    for name, value in encoder.state_dict().items():
        arrays[_STATE_PREFIX + name] = value

    config_json = json.dumps(dataclasses.asdict(model.config))
    meta_json = json.dumps({
        "use_temporal": encoder.use_temporal,
        "num_network_edges": encoder.spatial.network.num_edges,
    })
    np.savez_compressed(path, **arrays,
                        **{_CONFIG_KEY: np.array(config_json),
                           _META_KEY: np.array(meta_json)})
    return path


def load_model(path, network):
    """Load a model saved with :func:`save_model` onto ``network``.

    The road network must be the same one the model was trained on (checked
    via its edge count); the frozen node2vec features stored in the archive
    are reused, so no walks are re-run.
    """
    archive = np.load(path, allow_pickle=False)
    config = WSCCLConfig(**json.loads(str(archive[_CONFIG_KEY])))
    meta = json.loads(str(archive[_META_KEY]))
    if network.num_edges != meta["num_network_edges"]:
        raise ValueError(
            f"network mismatch: archive was trained on {meta['num_network_edges']} "
            f"edges, got a network with {network.num_edges}")

    resources = SharedResources(
        network,
        config=config,
        topology_features=archive[_RESOURCE_TOPOLOGY],
        temporal_embeddings=archive[_RESOURCE_TEMPORAL],
    )
    model = resources.new_encoder(use_temporal=meta["use_temporal"])
    state = {
        name[len(_STATE_PREFIX):]: archive[name]
        for name in archive.files if name.startswith(_STATE_PREFIX)
    }
    return model.load_state_dict(state)
