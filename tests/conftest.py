"""Test-suite settings. Hypothesis draws a small, fixed set of examples per
property (the same on every run) with no per-example deadline, so the suite
stays deterministic and free of timing failures on a loaded machine."""

from hypothesis import settings

settings.register_profile("default", derandomize=True, deadline=None, max_examples=25,
                          database=None)
settings.load_profile("default")
