"""Graph embedding substrate: node2vec (uniform walks at p = q = 1 + skip-gram)."""

from .node2vec import Node2Vec, Node2VecConfig, concat_endpoint_embeddings
from .skipgram import SkipGramTrainer
from .walks import RandomWalker

__all__ = ["Node2Vec", "Node2VecConfig", "RandomWalker", "SkipGramTrainer",
           "concat_endpoint_embeddings"]
