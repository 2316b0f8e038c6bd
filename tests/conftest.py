import contextlib
import signal

import pytest

from exatlas import algebras, jordan, lie
from exatlas.linalg import RationalMatrix


def mat(rows):
    """The ``RationalMatrix`` whose rows are the given sequences."""
    return RationalMatrix(len(rows), len(rows[0]), [v for row in rows for v in row])


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block it wraps once it has run for ``seconds``: a real-time
    timer raises TimeoutError in the main thread, so a solve that never
    ends stops there instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def octonion_algebra():
    return algebras.octonions()


@pytest.fixture(scope="session")
def j3o():
    return jordan.jordan_algebra(algebras.octonions())


@pytest.fixture(scope="session")
def der_h():
    return lie.named_derivation_algebra("quaternions")


@pytest.fixture(scope="session")
def der_o():
    return lie.named_derivation_algebra("octonions")


@pytest.fixture(scope="session")
def der_j3o():
    return lie.named_derivation_algebra("j3o")
