"""Fixtures shared by several test modules."""

import math

import numpy as np
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


@pytest.fixture(scope="session")
def rotated_to_e0():
    """``rotated_to_e0(H, psi0)``: P H P, symmetrized, for the reflector P
    that sends psi0 to +-e0, so that <e0|(P H P)^k|e0> = <psi0|H^k|psi0>
    and a Householder reduction from index 0 gives the coefficients of H
    from psi0."""
    def rotate(ham, psi0):
        v = np.array(psi0, dtype=float)
        v[0] += 1.0 if v[0] >= 0 else -1.0
        reflector = np.eye(v.size) - 2.0 * np.outer(v, v) / (v @ v)
        rotated = reflector @ ham @ reflector
        return (rotated + rotated.T) / 2.0
    return rotate
