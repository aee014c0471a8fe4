"""Root test configuration.

Puts ``tests/`` itself on ``sys.path`` so suites in any subdirectory can
import the shared :mod:`harness` package (pytest only auto-inserts each
test file's own directory), and exposes the differential harness as
fixtures for suites that prefer injection over imports.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from harness import differential  # noqa: E402  (needs the path insert)


@pytest.fixture
def engine_cache():
    """A fresh shared :class:`~repro.core.array_engine.EngineCache`."""
    from repro.core.array_engine import EngineCache

    return EngineCache()


@pytest.fixture
def differential_harness():
    """The cross-engine differential driver module (see its docstring)."""
    return differential

