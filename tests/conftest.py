import signal
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Seconds any test may run: the slowest takes a few seconds, so only a hang
# reaches this.
DEADLINE_S = 10


@pytest.fixture(autouse=True)
def deadline():
    """Fail each test with TimeoutError once it has run DEADLINE_S seconds,
    so a solver or prime search that regresses into a hang fails in seconds
    instead of stalling the suite.  Needs SIGALRM (POSIX); where
    `signal.alarm` is missing, tests run without a deadline."""
    if not hasattr(signal, "alarm"):
        yield None
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield DEADLINE_S
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
