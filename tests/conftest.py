"""Shared fixtures."""

import gc

import pytest


@pytest.fixture
def gc_disabled():
    """Run the test with the cyclic garbage collector off, so that only
    reference counting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
