"""Test-suite settings: hypothesis draws the same examples on every run and
keeps no example database, so a commit passes or fails the same way."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
