"""Hypothesis profiles.

Set HYPOTHESIS_PROFILE=ci to draw examples deterministically and print the
reproduction blob of a failing one, so a property failure in CI replays
locally with the same setting.  Example counts and deadlines stay as each
test sets them.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
