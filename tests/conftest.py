"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` loads a wide profile for the oracle tests of
the per-domain layout slice (``-k oracle`` in tests/test_skew.py), of
the rows laid out on read, the cache's group kernels and replay's batch
loop (``-k oracle`` in tests/test_cache.py), of the chunked trace parser
(``-k oracle`` in tests/test_trace.py), of the attack trial memo's
reports and played draw paths, of its numpy-seeded trial streams and
of collusion's lockstep engine (``-k oracle`` in tests/test_attacks.py)
and for the CLI exit-code fuzz (``-k fuzz`` in
tests/test_cli.py), which read their example budget from it; every
other test sets its own.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
