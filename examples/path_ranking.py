"""Path ranking: score alternative routes for a trip (paper §VII, Table III right).

For every simulated trip the dataset contains the driven path plus alternative
routes between the same origin and destination.  The task is to rank those
candidates the way the driver implicitly did (driven path first).  This
example trains WSCCL, fits a GBR on its frozen TPRs, and prints the ranking
for a few concrete candidate sets, followed by the aggregate metrics.

Run with:  python examples/path_ranking.py
"""

from __future__ import annotations

import numpy as np

from repro.core import WSCCL, WSCCLConfig
from repro.datasets import DatasetScale, aalborg
from repro.downstream import GradientBoostingRegressor, evaluate_ranking


def main():
    print("Building dataset and training WSCCL ...")
    city = aalborg(scale=DatasetScale.small())
    model = WSCCL(city.network, config=WSCCLConfig(epochs=2))
    model.fit(city.unlabeled, batches_per_epoch=10, expert_batches=5)

    examples = city.tasks.ranking
    representations = model.encode([e.temporal_path for e in examples])
    scores = np.array([e.score for e in examples])
    groups = np.array([e.group for e in examples])

    print("Fitting the ranking-score regressor on frozen TPRs ...")
    regressor = GradientBoostingRegressor(n_estimators=40)
    regressor.fit(representations, scores)
    predictions = regressor.predict(representations)

    print("\nExample candidate sets (ground-truth score vs predicted score):")
    shown = 0
    for group in np.unique(groups):
        mask = groups == group
        if mask.sum() < 3 or shown >= 3:
            continue
        shown += 1
        print(f"\n  Trip #{group}:")
        order = np.argsort(-scores[mask])
        group_paths = [examples[i] for i in np.flatnonzero(mask)]
        group_scores = scores[mask]
        group_predictions = predictions[mask]
        for rank, index in enumerate(order, start=1):
            example = group_paths[index]
            print(f"    rank {rank}: {len(example.temporal_path)} edges"
                  f"  true={group_scores[index]:.2f}"
                  f"  predicted={group_predictions[index]:.2f}")

    print("\nHeld-out evaluation (grouped split, as in the paper):")
    result = evaluate_ranking(model, examples, n_estimators=40, seed=0)
    print(f"  MAE = {result.mae:.3f}   Kendall tau = {result.kendall_tau:.3f}"
          f"   Spearman rho = {result.spearman_rho:.3f}")


if __name__ == "__main__":
    main()
