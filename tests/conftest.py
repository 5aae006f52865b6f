"""Shared Hypothesis settings: each property test draws the same examples on every run
(``derandomize``), keeps no example database, and has no per-example deadline.

This checkout's ``src`` goes on the import path right after the ``PYTHONPATH`` entries, so plain
``python -m pytest`` tests this checkout and ``PYTHONPATH=<other checkout>/src python -m pytest``
runs this suite against the other checkout's package."""

import os
import sys
from pathlib import Path

from hypothesis import settings

_named = {os.path.realpath(entry) for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry}
_after = max((i + 1 for i, entry in enumerate(sys.path) if os.path.realpath(entry) in _named), default=0)
sys.path.insert(_after, str(Path(__file__).resolve().parents[1] / "src"))

settings.register_profile("twotime", derandomize=True, database=None, deadline=None)
settings.load_profile("twotime")
