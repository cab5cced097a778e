"""Reference checks on one CLI run directory.

Run as ``python3 bench/refcheck.py <spreadq CLI argv with --seed and
--out>`` after the CLI has written ``--out``.  Prints one JSON line with the
worst error of each check that applies and the checks whose tolerance it
exceeds (none when the run is correct).  References are exact or
independent of the code path under test:

- model runs: b_1..b_(K-1) against exact-rational moments of the
  interpolation model, converted by the ``Fraction`` path of
  ``moments_to_lanczos``;
- matrix runs: <psi0|H^k|psi0> for k <= 12, by repeated mat-vec on member
  0's regenerated H, against (T^k)_00 from ``coeffs_0000.csv``;
- frm runs at full depth: F(t) of member 0 against full-space evolution
  from ``numpy.linalg.eigh(H)``.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

TOLERANCES = {"coeff_rel": 1e-6, "moment_rel": 1e-10, "survival_abs": 1e-8}
MOMENT_ORDER = 12


def options(argv: list[str]) -> dict:
    """``["frm", "--dim", "64", ...]`` -> ``{"dim": "64", ...}``."""
    return {flag[2:]: value for flag, value in zip(argv[1::2], argv[2::2])}


def _read_coeffs(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    a = np.array([float(r[1]) for r in rows])
    b = np.array([float(r[2]) for r in rows[1:]])
    return a, b


def interpolation_moments(sigma0: float, gamma: float, order: int) -> list:
    """Exact mu_0..mu_order of S(t) = exp(d/2 - (d/2) sqrt(1 + g^2 t^2/d^2)).

    With u = t^2 and d = g^2/(2 s^2), the exponent is P(u) = sum_k p_k u^k,
    p_k = -(d/2) binom(1/2, k) (g^2/d^2)^k, and exp(P) = sum_n e_n u^n with
    e_n = (1/n) sum_{k=1..n} k p_k e_(n-k).  Then mu_2n = (-1)^n (2n)! e_n.
    """
    s2 = Fraction(sigma0) ** 2
    g2 = Fraction(gamma) ** 2
    d = g2 / (2 * s2)
    ratio = g2 / (d * d)
    kmax = order // 2
    p = [Fraction(0)]
    binom = Fraction(1)
    for k in range(1, kmax + 1):
        binom *= (Fraction(1, 2) - (k - 1)) / k
        p.append(-d / 2 * binom * ratio ** k)
    e = [Fraction(1)]
    for n in range(1, kmax + 1):
        e.append(sum(k * p[k] * e[n - k] for k in range(1, n + 1)) / n)
    mu = [Fraction(0)] * (order + 1)
    for n in range(kmax + 1):
        mu[2 * n] = (-1) ** n * math.factorial(2 * n) * e[n]
    return mu


def interpolation_reference_b(sigma0: float, gamma: float, depth: int):
    from spreadq.moment_lanczos import moments_to_lanczos

    mu = interpolation_moments(sigma0, gamma, 2 * depth)
    return moments_to_lanczos(mu, depth).b


def coefficient_error(out: Path, reference_b: np.ndarray) -> float:
    """Worst relative error of b_1..b_(K-1) in coeffs.csv."""
    _, b = _read_coeffs(out / "coeffs.csv")
    if b.shape != reference_b.shape:
        return math.inf
    return float(np.max(np.abs(b - reference_b) / np.abs(reference_b)))


def member0(argv: list[str], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate member 0's H and initial state as the CLI builds them."""
    from spreadq.hamiltonians import (SpinChainSpec, build_spin_sector,
                                      domain_wall_state, sample_goe)

    opts = options(argv)
    if argv[0] == "frm":
        dim = int(opts["dim"])
        psi0 = np.zeros(dim)
        psi0[0] = 1.0
        return sample_goe(dim, seed, stream=0).H, psi0
    spec = SpinChainSpec(L=int(opts["L"]), h=float(opts["h"]),
                         g=float(opts.get("g", 1.0)), seed=seed)
    return build_spin_sector(spec, stream=0).H, \
        domain_wall_state(spec).amplitudes


def moment_error(out: Path, H: np.ndarray, psi0: np.ndarray) -> float:
    """Worst relative gap between <psi0|H^k|psi0> and (T^k)_00, k <= 12.

    A moment near zero (odd k) is compared on its natural scale
    mu_2^(k/2) instead of its own size.
    """
    a, b = _read_coeffs(out / "coeffs_0000.csv")
    v = psi0.copy()
    u = np.zeros(a.size)
    u[0] = 1.0
    mu_h, mu_t = [], []
    for _ in range(MOMENT_ORDER):
        v = H @ v
        nxt = a * u
        nxt[:-1] += b * u[1:]
        nxt[1:] += b * u[:-1]
        u = nxt
        mu_h.append(psi0 @ v)
        mu_t.append(u[0])
    worst = 0.0
    for k, (exact, tri) in enumerate(zip(mu_h, mu_t), start=1):
        scale = max(abs(exact), mu_h[1] ** (k / 2))
        worst = max(worst, abs(tri - exact) / scale)
    return worst


def survival_error(out: Path, H: np.ndarray, psi0: np.ndarray) -> float:
    """Worst |F(t) - F_full(t)| over member 0's grid."""
    data = np.loadtxt(out / "series_0000.csv", delimiter=",", skiprows=1)
    times, survival = data[:, 0], data[:, 2]
    energies, vecs = np.linalg.eigh(H)
    weights = (vecs.T @ psi0) ** 2
    amplitude = np.exp(-1j * np.outer(times, energies)) @ weights
    return float(np.max(np.abs(np.abs(amplitude) ** 2 - survival)))


def reference_errors(argv: list[str]) -> dict:
    """Worst error of each reference check that applies to ``argv``."""
    opts = options(argv)
    out = Path(opts["out"])
    if argv[0] == "model":
        reference_b = interpolation_reference_b(
            float(opts["sigma0"]), float(opts["gamma"]), int(opts["K"]))
        return {"coeff_rel": coefficient_error(out, reference_b)}
    H, psi0 = member0(argv, int(opts["seed"]))
    errors = {"moment_rel": moment_error(out, H, psi0)}
    if argv[0] == "frm" and "K" not in opts:
        errors["survival_abs"] = survival_error(out, H, psi0)
    return errors


def main(argv: list[str]) -> int:
    errors = reference_errors(argv)
    violations = [f"{name} = {value:.3e} exceeds {TOLERANCES[name]:.0e}"
                  for name, value in errors.items()
                  if not value <= TOLERANCES[name]]
    print(json.dumps({"errors": errors, "violations": violations}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
