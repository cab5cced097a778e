"""Fixtures shared by several test modules."""

import pytest

from spreadq import moment_lanczos


@pytest.fixture
def recursion_calls(monkeypatch):
    """Record the ``exact`` flag of every moment-recursion pass."""
    kernel = moment_lanczos._recursion
    calls = []

    def counted(mu, K, formal, exact):
        calls.append(exact)
        return kernel(mu, K, formal, exact)

    monkeypatch.setattr(moment_lanczos, "_recursion", counted)
    return calls
