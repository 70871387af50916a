"""Fixtures shared across the test modules."""

import concurrent.futures

import pytest

from qrngsim import timetag


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """Each fan-out's (worker count, start method), as it starts: "fork" for
    the workers ``fan_out`` forks itself, the pool's start method
    otherwise."""
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    fork_map = timetag._fork_map

    def recording_fork_map(fn, calls, workers):
        pools.append((workers, "fork"))
        return fork_map(fn, calls, workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(timetag, "_fork_map", recording_fork_map)
    return pools
