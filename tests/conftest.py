"""Test-session configuration.

Under CI (the `CI` environment variable is set, as GitHub Actions does)
the `hypothesis` property tests run the `ci` profile: examples derive
from each test's source rather than a random seed, and a failure prints
the blob that replays it (`@reproduce_failure`).  Local runs load the
`dev` profile, the default random exploration.  Neither profile runs
hypothesis's explain phase, which re-runs a failing example under a
tracer to annotate it.
"""

import os

from hypothesis import Phase, settings

_PHASES = tuple(p for p in Phase if p is not Phase.explain)
settings.register_profile("dev", phases=_PHASES)
settings.register_profile("ci", derandomize=True, print_blob=True, phases=_PHASES)
settings.load_profile("ci" if os.environ.get("CI") else "dev")
