"""Fixtures shared across the test modules."""

import contextlib
import threading

import pytest

from qrngsim import timetag


@pytest.fixture
def forks(monkeypatch) -> list:
    """The worker count of each fan-out that forks, as it starts."""
    counts = []
    fork_map = timetag._fork_map

    def recording_fork_map(fn, calls, workers):
        counts.append(workers)
        return fork_map(fn, calls, workers)

    monkeypatch.setattr(timetag, "_fork_map", recording_fork_map)
    return counts


@contextlib.contextmanager
def _second_thread():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        yield
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.fixture
def another_python_thread():
    """A context manager whose block runs while a second Python thread
    waits on an event, so that ``fan_out`` runs its calls in the caller."""
    return _second_thread
