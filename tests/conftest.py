"""Shared fixtures for the unit-test suite.

Everything here is deliberately small: the whole suite must stay fast
(no Monte Carlo run uses more than 49 worlds), so the datasets are a
few hundred points with one strongly biased region that 49 worlds
detect reliably.

A per-test watchdog (a daemon :class:`threading.Timer`) guards the
whole suite: a deadlocked gateway/drain/chaos test — or a hung fixture
teardown, even after the test failed — dumps every thread's stack and
kills the process after ``REPRO_TEST_TIMEOUT`` seconds (default 180)
instead of stalling the CI job until its global timeout.
"""

import faulthandler
import os
import threading

import numpy as np
import pytest

from repro.geometry import GridPartitioning, Rect, partition_region_set

#: Per-test watchdog budget in seconds (override via env; generous —
#: it exists to catch hangs, not slow tests).
TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


#: Where the watchdog writes its stack dump (see ``pytest_configure``).
_STDERR_FD = 2


def pytest_configure(config):
    """Keep a descriptor of the real stderr: output capture is
    suspended here, so the dump is not swallowed by the capture of
    the test that hung."""
    global _STDERR_FD
    _STDERR_FD = os.dup(2)


def _expire():
    """Dump every thread's stack and end the process at once."""
    os.write(
        _STDERR_FD,
        f"\nwatchdog: test still running after {TEST_TIMEOUT}s\n".encode(),
    )
    faulthandler.dump_traceback(file=_STDERR_FD, all_threads=True)
    os._exit(1)


@pytest.fixture(autouse=True)
def _watchdog():
    """Fail a deadlocked test fast, with a stack dump of every thread.

    Arms a daemon timer around each test: if the test (plus teardown)
    exceeds ``TEST_TIMEOUT`` seconds, every thread's stack goes to
    stderr and the process exits — CI shows *where* the hang is
    instead of a silent job timeout.  The timer is our own, not
    :func:`faulthandler.dump_traceback_later`, because pytest's
    faulthandler plugin cancels that one as soon as a test fails,
    leaving a hung teardown unguarded.  Passing tests pay one timer
    start/cancel each.
    """
    timer = None
    if TEST_TIMEOUT > 0:
        timer = threading.Timer(TEST_TIMEOUT, _expire)
        timer.daemon = True
        timer.start()
    try:
        yield
    finally:
        if timer is not None:
            timer.cancel()


@pytest.fixture(autouse=True)
def _isolate_faults():
    """Restore the process-wide fault plan after every test.

    Tests arm fail points with ``install_faults``; restoring the
    previous registry (rather than clearing) keeps a CI-level
    ``REPRO_FAULTS`` plan active across the rest of the run.
    """
    from repro import faults

    before = faults.active_faults()
    yield
    faults._ACTIVE = before

#: The unit-test Monte Carlo budget (keep <= 49 per the suite rules).
N_WORLDS = 49

#: The injected bias region every golden dataset uses.
BIAS_RECT = Rect(0.0, 0.0, 0.35, 0.35)


@pytest.fixture(scope="session")
def unit_coords():
    rng = np.random.default_rng(100)
    return rng.random((600, 2))


@pytest.fixture(scope="session")
def unit_regions():
    grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 5, 5)
    return partition_region_set(grid)


@pytest.fixture(scope="session")
def biased_labels(unit_coords):
    """Binary outcomes: rate 0.7 everywhere, 0.15 inside BIAS_RECT."""
    rng = np.random.default_rng(101)
    inside = BIAS_RECT.contains(unit_coords)
    rates = np.where(inside, 0.15, 0.7)
    return (rng.random(len(unit_coords)) < rates).astype(np.int8)


@pytest.fixture(scope="session")
def biased_counts(unit_coords):
    """(observed, forecast) counts: forecast uniform, observed doubled
    inside BIAS_RECT."""
    rng = np.random.default_rng(102)
    forecast = np.full(len(unit_coords), 4.0)
    mean = np.where(BIAS_RECT.contains(unit_coords), 8.0, 4.0)
    observed = rng.poisson(mean).astype(np.float64)
    return observed, forecast


@pytest.fixture(scope="session")
def biased_classes(unit_coords):
    """3-class labels: skewed towards class 2 inside BIAS_RECT."""
    rng = np.random.default_rng(103)
    inside = BIAS_RECT.contains(unit_coords)
    u = rng.random(len(unit_coords))
    labels = np.searchsorted(np.array([0.4, 0.75]), u)  # 40/35/25 mix
    labels_biased = np.searchsorted(np.array([0.1, 0.2]), u)  # 10/10/80
    return np.where(inside, labels_biased, labels).astype(np.int64)
