import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest


@contextmanager
def _count_copies(module):
    """Record the shape of every array the value classes of module copy."""
    copies = []
    real = module._frozen

    def counting(values):
        out = real(values)
        if out is not values:
            copies.append(values.shape)
        return out

    with mock.patch.object(module, "_frozen", counting):
        yield copies


@pytest.fixture(scope="session")
def count_copies():
    """count_copies(module) is a context that yields the list of copies."""
    return _count_copies


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(call) is (call(), tracemalloc's peak bytes over the call)."""
    return _traced_peak
