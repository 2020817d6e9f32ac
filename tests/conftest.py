import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds): ...`` raises TimeoutError once the block has
    run for `seconds`, so a regression that loops forever fails the test
    instead of hanging the suite (SIGALRM: main thread, POSIX only)."""

    @contextlib.contextmanager
    def arm(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return arm
