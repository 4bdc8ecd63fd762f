"""Hypothesis draws the same examples on every run and keeps no example
database. Its cache of the constants it reads from the package's source
goes to a temporary directory removed at exit, so a test run writes no
`.hypothesis/`."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)
