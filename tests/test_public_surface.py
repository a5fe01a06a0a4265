"""Every name a ``repro`` package or module exports in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

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
