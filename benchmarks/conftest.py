"""Shared fixtures for the benchmark suite.

Every benchmark reproduces one table or figure from the paper's evaluation
section (§VII) at a reduced scale, prints the regenerated rows and asserts
the table's shape (who wins, orderings).  ``pytest benchmarks/ -q`` runs them
all (``pytest.ini`` collects ``bench_*.py``); add ``-s`` to see the tables.

pytest-benchmark is configured for a single round per benchmark: each
"iteration" is a full experiment (dataset build + model training +
evaluation), so repeating it would multiply minutes of work for no extra
statistical value.
"""

from __future__ import annotations

import pytest

from repro.evaluation import HarnessConfig


def pytest_collection_modifyitems(config, items):
    """Keep benchmarks in file order (tables are printed in paper order)."""
    items.sort(key=lambda item: str(item.fspath))


@pytest.fixture(scope="session")
def bench_config():
    """The scaled-down harness configuration shared by all table benches."""
    return HarnessConfig.benchmark()


@pytest.fixture()
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
