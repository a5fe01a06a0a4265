"""Baseline methods compared against WSCCL (paper §VII-A3)."""

from .base import RepresentationModel, SupervisedModel
from .bert_path import BERTPathModel
from .deepgtt import DeepGTTModel
from .gcn import GCNTravelTimeModel, STGCNTravelTimeModel
from .graph_embedding import DGIPathModel, GMIPathModel, Node2vecPathModel
from .hmtrl import HMTRLModel
from .infograph import InfoGraphModel
from .memory_bank import MemoryBankModel
from .pathrank import PathRankModel
from .pim import PIMModel, PIMTemporalModel
from .sequence_encoder import SpatialSequenceEncoder

__all__ = [
    "RepresentationModel",
    "SupervisedModel",
    "SpatialSequenceEncoder",
    "Node2vecPathModel",
    "DGIPathModel",
    "GMIPathModel",
    "MemoryBankModel",
    "BERTPathModel",
    "InfoGraphModel",
    "PIMModel",
    "PIMTemporalModel",
    "DeepGTTModel",
    "HMTRLModel",
    "PathRankModel",
    "GCNTravelTimeModel",
    "STGCNTravelTimeModel",
]
