"""Shared test setup: a derandomized, database-free hypothesis profile, the memory gates' peak, reaper and fd checks.

Every property runs the same examples on every run, so Tier-1 stays
deterministic; a test that needs more examples overrides ``max_examples``
with ``@settings`` on top of this profile.  Every test must leave no child
process behind, running or unreaped: the forked table writers and fold
workers are reaped on every exit.  A test of the forked processes may also
ask that it leave no descriptor open that it did not find open.
"""

import os
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


@pytest.fixture(autouse=True)
def no_child_is_left():
    """Fail a test that leaves a child process running, or exited and not reaped (which this then reaps)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "running" if pid == 0 else f"exited with status {os.waitstatus_to_exitcode(status)}, not reaped"
    pytest.fail(f"the test left a child process {left}")


@pytest.fixture
def descriptors_kept():
    """Fail a test that leaves this process's set of open descriptors other than it found it (pidfds, pipes, spills)."""
    before = set(os.listdir("/proc/self/fd"))
    yield
    after = set(os.listdir("/proc/self/fd"))
    if after != before:
        pytest.fail(f"the test left descriptors {sorted(after - before)} open and {sorted(before - after)} closed")
