"""Process-wide memo for pure pre-processing artifacts (node2vec fits, cities).

Callers key :func:`remember` on a plain tuple of every input the artifact
depends on, and either copy what it returns or treat it as read-only.
Tests call :func:`clear` to start cold.
"""

from __future__ import annotations

_artifacts = {}


def remember(key, build):
    """The artifact stored under ``key``, built by ``build()`` on first use."""
    if key not in _artifacts:
        _artifacts[key] = build()
    return _artifacts[key]


def clear():
    """Forget every stored artifact."""
    _artifacts.clear()
