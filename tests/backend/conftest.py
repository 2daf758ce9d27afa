"""Fixtures shared by the backend tests."""

import pytest

from .residency import RESIDENCIES


@pytest.fixture(params=sorted(RESIDENCIES))
def as_residency(request):
    """Rebuild a batch in one residency (parametrized over all three)."""
    return RESIDENCIES[request.param]
