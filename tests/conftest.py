"""Shared Hypothesis settings: each property test draws the same examples on every run
(``derandomize``), keeps no example database, and has no per-example deadline."""

from hypothesis import settings

settings.register_profile("twotime", derandomize=True, database=None, deadline=None)
settings.load_profile("twotime")
