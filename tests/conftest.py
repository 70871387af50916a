"""Fixtures shared across the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """Each process pool's (max_workers, start method), as it is made."""
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools
