"""WSCCL as a pre-training method for supervised PathRank (paper Fig. 7).

The paper's final experiment: when labelled data is scarce, initialise the
supervised PathRank model with the temporal path encoder learned by WSCCL on
the (cheap) unlabeled corpus.  This example trains PathRank from scratch and
from the pre-trained encoder at two labelled-data budgets and prints the
resulting travel-time errors.

Run with:  python examples/pretraining_pathrank.py
"""

from __future__ import annotations

from repro.core import WSCCLConfig
from repro.datasets import DatasetScale, task_split
from repro.evaluation import (
    HarnessConfig,
    build_dataset,
    build_supervised_baseline,
    fit_wsccl,
    format_metric_table,
    supervised_task_results,
)


def main():
    config = HarnessConfig(
        scale=DatasetScale.small(),
        wsccl=WSCCLConfig(epochs=2),
        supervised_epochs=3,
        max_batches=15,
        n_estimators=40,
    )
    print("Building dataset ...")
    city = build_dataset("aalborg", config)

    print("Training WSCCL on the unlabeled corpus (the pre-training step) ...")
    wsccl = fit_wsccl(city, config, variant="full")
    pretrained_state = wsccl.encoder_state_dict()

    train, _ = task_split("travel_time", city.tasks.travel_time,
                          config.test_fraction, config.seed)
    budgets = {"40% labels": max(4, int(0.4 * len(train))), "100% labels": len(train)}

    rows = {}
    for budget_name, limit in budgets.items():
        scratch = build_supervised_baseline("PathRank", config)
        scratch_row = supervised_task_results(scratch, city, config, "travel_time",
                                              train_limit=limit)

        pretrained = build_supervised_baseline("PathRank", config,
                                               pretrained_state=pretrained_state)
        pretrained_row = supervised_task_results(pretrained, city, config, "travel_time",
                                                 train_limit=limit)
        rows[f"scratch @ {budget_name}"] = scratch_row
        rows[f"pretrained @ {budget_name}"] = pretrained_row

    print()
    print(format_metric_table(rows, title="PathRank travel-time MAE with and without WSCCL pre-training"))
    print("\nThe pre-trained encoder lets PathRank reach comparable accuracy with")
    print("fewer labelled paths, mirroring the paper's Fig. 7.")


if __name__ == "__main__":
    main()
