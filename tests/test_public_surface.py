"""Every name a ``repro`` package or module exports in ``__all__`` resolves,
and no module carries a second engine next to its own."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

import pytest

import repro

MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


def test_every_layer_is_found():
    layers = {"repro.core", "repro.datasets", "repro.downstream", "repro.evaluation",
              "repro.nn", "repro.trajectory"}
    assert layers <= set(MODULES)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_no_loop_oracle_or_engine_fork(name):
    # Loop oracles live under tests/ as reference_<module>.py; one engine per
    # layer needs no "_vectorized_" name to tell it apart.
    source = inspect.getsource(importlib.import_module(name))
    forks = re.findall(r"^\s*def (_(?:reference|vectorized)_\w*)", source, re.MULTILINE)
    assert not forks, f"{name} defines {forks}"


def test_one_dijkstra_loop_in_road_search():
    # shortest_path, Yen's spur searches and DijkstraCache share one engine;
    # a second heap-pop loop would be a second engine.
    source = inspect.getsource(importlib.import_module("repro.roadnet.search"))
    assert len(re.findall(r"\bheappop\(", source)) == 1
