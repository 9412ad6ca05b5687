"""A time limit for one step of a test, so that a hang fails the test
instead of stalling the suite.  It uses SIGALRM, so it needs POSIX and the
main thread."""

import signal
from contextlib import contextmanager


@contextmanager
def time_guard(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
