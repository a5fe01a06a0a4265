"""Core WSCCL implementation (the paper's primary contribution)."""

from .config import WSCCLConfig
from .curriculum import (
    CurriculumPlan,
    build_curriculum_stages,
    difficulty_scores,
    heuristic_curriculum_stages,
    split_into_meta_sets,
    train_experts,
)
from .encoder import PAD_EDGE_ID, LSTMPathEncoder, PathEncoder, TemporalPathEncoder, pad_paths
from .losses import combined_wsc_loss
from .model import SharedResources
from .sampling import (
    ContrastSets,
    EdgeSampleSets,
    augment_with_positive_views,
    build_contrast_sets,
    sample_edge_sets,
)
from .persistence import load_model, save_model
from .spatial import SpatialEmbedding
from .temporal_embedding import TemporalEmbedding
from .trainer import TrainingHistory, WSCTrainer
from .wsccl import WSCCL

__all__ = [
    "WSCCLConfig",
    "SpatialEmbedding",
    "TemporalEmbedding",
    "LSTMPathEncoder",
    "PathEncoder",
    "TemporalPathEncoder",
    "pad_paths",
    "PAD_EDGE_ID",
    "augment_with_positive_views",
    "build_contrast_sets",
    "sample_edge_sets",
    "ContrastSets",
    "EdgeSampleSets",
    "combined_wsc_loss",
    "SharedResources",
    "WSCTrainer",
    "TrainingHistory",
    "split_into_meta_sets",
    "train_experts",
    "difficulty_scores",
    "build_curriculum_stages",
    "heuristic_curriculum_stages",
    "CurriculumPlan",
    "WSCCL",
    "save_model",
    "load_model",
]
