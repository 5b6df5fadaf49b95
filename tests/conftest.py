"""Test-session configuration.

Under CI (the `CI` environment variable is set, as GitHub Actions does)
the `hypothesis` property tests run the `ci` profile: examples derive
from each test's source rather than a random seed, and a failure prints
the blob that replays it (`@reproduce_failure`).  Local runs keep the
default random exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
