"""Shared fixtures."""

import pytest

from nullctrl import saddle


@pytest.fixture
def factorizations(monkeypatch):
    """List that gains one entry per sparse LU factorization (`splu`) the
    saddle layer makes during the test."""
    calls = []
    splu = saddle.spla.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(saddle.spla, "splu", counted)
    return calls
