"""Hypothesis profiles for the suite.

tier1, loaded by default, derandomizes every property test: each run draws
the same examples, so a failure is a fixed failure and replays as it stood.
sweep draws fresh examples from the seed given with --hypothesis-seed, to
look for new failing paths:

    pytest -m "not acceptance" --hypothesis-profile=sweep --hypothesis-seed=N

A profile named on the command line replaces the default loaded here.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("sweep", derandomize=False)
settings.load_profile("tier1")
