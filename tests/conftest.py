"""Shared test setup: one derandomized, database-free hypothesis profile, and the memory gates' peak.

Every property runs the same examples on every run, so Tier-1 stays
deterministic; a test that needs more examples overrides ``max_examples``
with ``@settings`` on top of this profile.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("deterministic")


@pytest.fixture
def traced_peak():
    """``peak(run)``: the ``tracemalloc`` peak of a second ``run()`` above what the first, a warm-up, left traced.

    The warm-up takes what a first run takes once, such as lazily imported
    modules and kept buffers, and the peak is counted from the traced total
    it left, so a gate reads the same alone or after other tests.
    """

    def peak(run):
        tracemalloc.start()
        try:
            run()
            tracemalloc.reset_peak()
            left = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - left
        finally:
            tracemalloc.stop()

    return peak
