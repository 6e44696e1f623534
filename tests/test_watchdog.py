"""The suite's per-test watchdog (``tests/conftest.py``) must kill a
hang even where pytest's own faulthandler plugin stands down: in the
fixture teardown of a test that already failed."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HUNG_TEARDOWN = '''
import time

import pytest


@pytest.fixture()
def slow_teardown():
    yield
    time.sleep(60)


def test_fails_then_hangs(slow_teardown):
    assert False
'''


def test_watchdog_kills_hung_teardown_after_failure(tmp_path):
    (tmp_path / "test_hang.py").write_text(HUNG_TEARDOWN)
    env = dict(
        os.environ,
        REPRO_TEST_TIMEOUT="2",
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
    )
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider", "-p", "tests.conftest",
            str(tmp_path / "test_hang.py"),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=15,
    )
    assert time.monotonic() - start < 15
    assert proc.returncode != 0
    assert "watchdog: test still running after 2.0s" in proc.stderr
    assert "slow_teardown" in proc.stderr
