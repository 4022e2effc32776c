import signal
from contextlib import contextmanager

import pytest

from oepartitions import genfun


@pytest.fixture
def summand_calls(monkeypatch):
    """The orders of the genfun._sum_summands calls a test makes.

    genfun keeps no series between calls, so every series a test builds
    counts.  Each sj_series class is a call of its own.
    """
    orders = []
    inner = genfun._sum_summands

    def counting(order, *args, **kwargs):
        orders.append(order)
        return inner(order, *args, **kwargs)

    monkeypatch.setattr(genfun, "_sum_summands", counting)
    return orders


class TimeLimitExpired(BaseException):
    """Not an Exception, so no `except Exception` in the code under test swallows it."""


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeLimitExpired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """A context manager, time_limit(seconds), that fails the test instead of
    letting it hang once `seconds` have passed."""
    return _time_limit
