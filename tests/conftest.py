"""Hypothesis profiles: with CI set, every property test draws the same examples each run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
