"""Fixtures shared by every test module."""

import pytest

from pcoselect import numerics


@pytest.fixture(autouse=True)
def _no_block_pool_between_tests():
    """Close the block pool after each test.  Every test then forks its own
    workers, after its monkeypatches, and a test that asserts this process
    has no child left sees only what it started itself."""
    yield
    numerics._close_pool()
