import signal
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Seconds a test that takes the `deadline` fixture may run: each such test
# takes well under one second, so only a hang reaches this.
DEADLINE_S = 10


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError once it has run DEADLINE_S seconds,
    so a solver or prime search that regresses into a hang fails in seconds
    instead of stalling the suite.  Needs SIGALRM (POSIX); skipped where
    `signal.alarm` is missing."""
    if not hasattr(signal, "alarm"):
        pytest.skip("the deadline needs signal.alarm")

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield DEADLINE_S
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
