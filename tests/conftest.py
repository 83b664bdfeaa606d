"""Shared test setup: one derandomized, database-free hypothesis profile.

Every property runs the same examples on every run, so Tier-1 stays
deterministic; a test that needs more examples overrides ``max_examples``
with ``@settings`` on top of this profile.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("deterministic")
