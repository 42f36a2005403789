"""Fixtures shared by the test modules."""

import pytest

from ifslab.restrictions import Phi


@pytest.fixture
def phi_floors(monkeypatch):
    """Every argument ``Phi.floor`` is called with while the test runs, in
    call order; the floors themselves are unchanged."""
    calls = []
    floor = Phi.floor

    def spy(self, n):
        calls.append(n)
        return floor(self, n)

    monkeypatch.setattr(Phi, "floor", spy)
    return calls
