"""BERT-style masked path modelling baseline.

The paper adapts BERT by treating a path as a sentence: an edge is masked
and predicted from context, and sub-path pairs (P1, P2) vs (P2, P1) provide
an ordering ("next sentence") objective.  This implementation keeps both
objectives over the shared spatial LSTM encoder: exactly one edge per path
is masked per step, and its road type is predicted from the pooled path
representation.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .sequence_encoder import SpatialSequenceModel

__all__ = ["BERTPathModel"]


class BERTPathModel(SpatialSequenceModel):
    """Masked-edge + ordering pre-training over path sequences."""

    def _objective(self, city, encoder, rng):
        network = city.network
        paths = city.unlabeled.temporal_paths
        # Masked-edge head: predict the masked edge's road type from the
        # pooled context representation.
        num_road_types = network.feature_encoder.num_road_types
        mask_head = nn.Linear(self.dim, num_road_types, rng=np.random.default_rng(self.seed + 1))
        # Ordering head: is this (first half, second half) pair in the
        # correct order?
        order_head = nn.Linear(2 * self.dim, 1, rng=np.random.default_rng(self.seed + 2))
        categories = network.edge_feature_matrix()

        def loss_of(step, indices):
            batch_paths = [paths[i] for i in indices]
            pooled, outputs, mask = encoder(batch_paths)

            # ---- masked edge objective: one edge per path ----------------
            target_types = []
            context_vectors = []
            for row, path in enumerate(batch_paths):
                valid = len(path)
                masked_position = int(rng.integers(0, valid))
                target_types.append(categories[path.path[masked_position], 0])
                context_vectors.append(pooled[row:row + 1, :])
            contexts = nn.Tensor.concatenate(context_vectors, axis=0)
            logits = mask_head(contexts)
            mask_loss = nn.functional.cross_entropy(logits, np.array(target_types))

            # ---- sub-path ordering objective -----------------------------
            half_reps = []
            order_labels = []
            for row, path in enumerate(batch_paths):
                if len(path) < 4:
                    continue
                midpoint = len(path) // 2
                first = outputs[row, :midpoint, :].mean(axis=0)
                second = outputs[row, midpoint:len(path), :].mean(axis=0)
                if rng.random() < 0.5:
                    half_reps.append(nn.Tensor.concatenate([first, second], axis=0).reshape(1, -1))
                    order_labels.append(1.0)
                else:
                    half_reps.append(nn.Tensor.concatenate([second, first], axis=0).reshape(1, -1))
                    order_labels.append(0.0)
            if not half_reps:
                return mask_loss
            pair_logits = order_head(nn.Tensor.concatenate(half_reps, axis=0)).reshape(-1)
            return mask_loss + nn.functional.binary_cross_entropy_with_logits(
                pair_logits, nn.Tensor(np.array(order_labels))
            )

        return (mask_head, order_head), loss_of
