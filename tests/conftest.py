"""Fixtures shared by several test modules."""

import math

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


@pytest.fixture
def ldos():
    """``ldos(H, psi0)``: the mean e0 and the width sigma0 (= b_1) of the
    local density of states of psi0, from one matrix-vector product."""
    def summary(ham, psi0):
        hpsi = ham @ psi0
        e0 = float(psi0 @ hpsi)
        return e0, math.sqrt(max(float(hpsi @ hpsi) - e0 ** 2, 0.0))
    return summary
