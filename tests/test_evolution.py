"""Tests for Krylov-space evolution and spread-complexity observables.

The cross-representation oracle evolves the same state in the original basis
with scipy's expm and projects onto the Krylov vectors; the Krylov-side
amplitudes must reproduce it.
"""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from spreadq import DomainError, LanczosCoefficients, NumericalError, cli
from spreadq.evolution import (
    AVERAGE_COLUMN_SLAB,
    HEISENBERG_MULTIPLE,
    TIME_SLAB_ROWS,
    LongTimeAverages,
    Spectrum,
    SpreadComplexitySeries,
    eigendecompose,
    evolve_amplitudes,
    long_time_average,
    spread_series,
    time_grid,
)
from spreadq.hamiltonians import (
    SpinChainSpec,
    build_spin_sector,
    domain_wall_index,
    domain_wall_state,
)
from spreadq.matrix_lanczos import (
    householder_hessenberg,
    lanczos_tridiagonalize,
)


def two_level():
    return LanczosCoefficients(a=np.zeros(2), b=np.ones(1), physical=True)


def gaussian_lc(sigma0, K):
    n = np.arange(1, K)
    return LanczosCoefficients(a=np.zeros(K), b=sigma0 * np.sqrt(n),
                               physical=True)


def test_two_level_analytic_solution():
    t = np.linspace(0.0, 6.0, 121)
    spectrum = eigendecompose(two_level())
    phi = evolve_amplitudes(spectrum, t)
    np.testing.assert_allclose(phi[:, 0], np.cos(t), atol=1e-14)
    np.testing.assert_allclose(phi[:, 1], -1j * np.sin(t), atol=1e-14)
    series = spread_series(spectrum, t)
    np.testing.assert_allclose(series.C, np.sin(t) ** 2, atol=1e-14)
    np.testing.assert_allclose(series.F, np.cos(t) ** 2, atol=1e-14)


def test_initial_conditions():
    lc = gaussian_lc(1.0, 12)
    spectrum = eigendecompose(lc)
    phi = evolve_amplitudes(spectrum, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(phi[0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(phi[0, 1:], 0.0, atol=1e-12)
    series = spread_series(spectrum, np.array([0.0, 0.5, 1.0]))
    assert series.C[0] == pytest.approx(0.0, abs=1e-12)
    assert series.F[0] == pytest.approx(1.0, abs=1e-12)


def test_unitarity_on_long_grid():
    lc = gaussian_lc(2.0, 40)
    phi = evolve_amplitudes(eigendecompose(lc), np.geomspace(1e-3, 1e3, 400))
    norms = np.sum(np.abs(phi) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_matches_full_space_evolution():
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [99, 0], dtype=np.uint64)))
    raw = gen.standard_normal((8, 8))
    ham = (raw + raw.T) / 2
    psi0 = np.zeros(8)
    psi0[0] = 1.0
    lc, basis = lanczos_tridiagonalize(ham, psi0, 8, return_basis=True)
    times = np.linspace(0.0, 12.0, 60)
    phi = evolve_amplitudes(eigendecompose(lc), times)
    for i, t in enumerate(times):
        evolved = expm(-1j * ham * t) @ psi0
        projected = basis.conj() @ evolved
        np.testing.assert_allclose(phi[i], projected, atol=1e-9)
        assert abs(abs(evolved[0]) ** 2 - abs(phi[i, 0]) ** 2) < 1e-9


@pytest.mark.parametrize("L", [8, 10])
def test_spin_chain_survival_matches_full_space_eigh(L):
    # F(t) = |sum_k |<k|psi>|^2 exp(-i E_k t)|^2 from a full eigh of the
    # sector, against a member's route: the domain-wall swap reduced in
    # place, then cli._evolve on its own log grid, which runs to 20
    # Heisenberg times
    spec = SpinChainSpec(L=L, h=0.4, g=1.0, seed=5)
    ham = build_spin_sector(spec).H
    psi0 = domain_wall_state(spec).amplitudes
    energies, vectors = np.linalg.eigh(ham)
    weights = (vectors.T @ psi0) ** 2
    lc = householder_hessenberg(ham, domain_wall_index(spec),
                                overwrite_h=True)
    series, _ = cli._evolve(lc, {"tpoints": 600, "tmax": None,
                                 "log_grid": True})
    assert series.times[-1] > 10 * 2 * np.pi / np.median(np.diff(energies))
    phases = np.exp(-1j * np.outer(series.times, energies))
    exact = np.abs(phases @ weights) ** 2
    np.testing.assert_allclose(series.F, exact, rtol=0, atol=1e-10)


def test_gaussian_early_time_quadratic():
    sigma0 = 1.3
    lc = gaussian_lc(sigma0, 60)
    b1 = lc.b[0]
    t_probe = 0.05 / b1
    series = spread_series(eigendecompose(lc), np.array([t_probe]))
    assert series.C[0] == pytest.approx(b1 ** 2 * t_probe ** 2, rel=0.01)


def test_early_time_universality_across_models():
    # C(t)/(b1 t)^2 -> 1 for any physical coefficient set
    sets = [
        gaussian_lc(0.5, 30),
        LanczosCoefficients(a=np.zeros(20), b=np.ones(19), physical=True),
        LanczosCoefficients(a=np.linspace(-1, 1, 10),
                            b=np.linspace(2.0, 0.5, 9), physical=True),
    ]
    for lc in sets:
        t_probe = 0.01 / lc.b[0]
        series = spread_series(eigendecompose(lc), np.array([t_probe]))
        ratio = series.C[0] / (lc.b[0] * t_probe) ** 2
        assert ratio == pytest.approx(1.0, rel=0.01)


def test_two_level_long_time_average():
    avg = long_time_average(eigendecompose(two_level()))
    assert avg.f_bar == pytest.approx(0.5, rel=1e-12)
    assert avg.c_bar == pytest.approx(0.5, rel=1e-12)


def test_single_level_average_trivial():
    lc = LanczosCoefficients(a=np.array([0.7]), b=np.zeros(0), physical=True)
    spectrum = eigendecompose(lc)
    avg = long_time_average(spectrum)
    assert avg.f_bar == 1.0
    assert avg.c_bar == 0.0
    phi = evolve_amplitudes(spectrum, np.linspace(0, 5, 11))
    np.testing.assert_allclose(np.abs(phi[:, 0]), 1.0, atol=1e-14)


def test_degenerate_levels_merged():
    # two unit dimers coupled by 1e-14 give two near-degenerate pairs at
    # +-1, split far below 1e-12 of the spectrum; over any time a grid
    # reaches the state stays in the first dimer, so F_bar = C_bar = 1/2,
    # not the naive four-level 1/4 and 1.  The rule is relative: the same
    # T scaled by 1e-160 merges the same pairs.
    for scale in (1.0, 1e-160):
        lc = LanczosCoefficients(a=np.zeros(4),
                                 b=scale * np.array([1.0, 1e-14, 1.0]),
                                 physical=True)
        avg = long_time_average(eigendecompose(lc))
        assert avg.f_bar == pytest.approx(0.5, abs=1e-12)
        assert avg.c_bar == pytest.approx(0.5, abs=1e-12)
    # a lone pair split by 2e-13 is a real two-level system (period ~3e13)
    lone = long_time_average(eigendecompose(LanczosCoefficients(
        a=np.zeros(2), b=np.array([1e-13]), physical=True)))
    assert lone.f_bar == pytest.approx(0.5, abs=1e-12)
    assert lone.c_bar == pytest.approx(0.5, abs=1e-12)


def test_time_average_converges_to_long_time_average():
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [7, 0], dtype=np.uint64)))
    raw = gen.standard_normal((9, 9))
    ham = (raw + raw.T) / 2
    psi0 = np.zeros(9)
    psi0[0] = 1.0
    spectrum = eigendecompose(lanczos_tridiagonalize(ham, psi0, 9))
    avg = long_time_average(spectrum)
    times = np.linspace(200.0, 400.0, 4001)
    series = spread_series(spectrum, times)
    assert np.mean(series.C) == pytest.approx(avg.c_bar, rel=0.02)
    assert np.mean(series.F) == pytest.approx(avg.f_bar, rel=0.05)


def test_formal_coefficients_rejected():
    lc = LanczosCoefficients(a=np.zeros(3), b=np.array([1.0, -1.0]),
                             physical=False)
    with pytest.raises(DomainError, match="formal"):
        eigendecompose(lc)


def test_time_grid_ends_at_twenty_heisenberg_times():
    # gaps 1, 0.5 and 1.5: the median level spacing is 1
    values = np.array([-1.0, 0.0, 0.5, 2.0])
    grid = time_grid(values, 2.0, 5)
    assert grid[0] == pytest.approx(5e-3, rel=1e-15)
    assert grid[-1] == pytest.approx(40.0 * math.pi, rel=1e-15)
    assert np.allclose(np.diff(np.log(grid)), np.log(grid[1] / grid[0]))
    # gaps below 1e-12 of the spectral scale are degeneracies, not levels
    degenerate = np.array([0.0, 1e-13, 2e-13, 1.0, 2.0])
    assert time_grid(degenerate, 2.0, 5)[-1] == pytest.approx(40.0 * math.pi)
    # no level spacing at all: the grid ends at 1e3/sigma
    assert time_grid(np.array([3.0, 3.0]), 2.0, 5)[-1] == pytest.approx(500.0)
    assert np.array_equal(time_grid(values, 2.0, 3, tmax=4.0, log=False),
                          [0.0, 2.0, 4.0])


def test_time_grid_end_uses_numpy_median_bit_for_bit():
    # the median gap is taken without np.median (which imports numpy.ma);
    # odd and even gap counts, with and without ties, must match it exactly
    rng = np.random.default_rng(23)
    for size in (2, 3, 4, 5, 40, 41, 1000, 1001):
        for values in (np.sort(rng.standard_normal(size)),
                       np.sort(rng.integers(0, size // 2 + 2, size) / 3.0)):
            gaps = np.diff(values)
            gaps = gaps[gaps > 1e-12 * max(1.0, np.abs(values).max())]
            if not gaps.size:
                continue
            expected = HEISENBERG_MULTIPLE * 2.0 * math.pi \
                / float(np.median(gaps))
            assert time_grid(values, 1.0, 2, log=False)[-1] == expected


@pytest.mark.parametrize("points, tmax, log, message", [
    (1, None, True, "--tpoints must be an integer >= 2"),
    (5, -1.0, True, "--tmax must be positive"),
    (5, math.inf, True, "--tmax must be positive"),
    (5, 0.0, False, "--tmax must be positive"),
    (5, 1e-3, True, "below the smallest grid time 0.005"),
])
def test_time_grid_rejects_bad_ends(points, tmax, log, message):
    with pytest.raises(DomainError, match=message):
        time_grid(np.array([0.0, 1.0]), 2.0, points, tmax=tmax, log=log)


def test_spread_series_rejects_denormalized_amplitudes():
    # the one normalization check, on each slab's weights: vectors scaled
    # by 1.001 put every norm near 1.001^4 on a three-slab grid
    spectrum = eigendecompose(gaussian_lc(1.0, 12))
    scaled = Spectrum(spectrum.values, spectrum.vectors * 1.001)
    times = np.linspace(0.0, 10.0, 450)
    assert 2 * TIME_SLAB_ROWS < times.size <= 3 * TIME_SLAB_ROWS
    spread_series(spectrum, times)
    with pytest.raises(NumericalError,
                       match="amplitude normalization off by 4.006e-03"):
        spread_series(scaled, times)


def test_spread_series_checks_phi_at_zero_in_any_slab():
    # a degenerate pair keeps phi(t) = exp(-i lambda t) phi(0) normalized,
    # but phi(0) = (1/2, sqrt(3)/2) is not the first unit vector; t = 0 is
    # row 400, in the grid's third slab
    s, c = 0.5, math.sqrt(3.0) / 2.0
    spectrum = Spectrum(np.zeros(2), np.array([[s, s], [c, c]]))
    times = np.linspace(-400.0, 49.0, 450)
    assert times[400] == 0.0 and 400 >= 2 * TIME_SLAB_ROWS
    series = spread_series(spectrum, times[:400])
    np.testing.assert_allclose(series.F, 0.25, atol=1e-15)
    with pytest.raises(NumericalError, match="first unit vector"):
        spread_series(spectrum, times)


def test_series_validation_and_bounds():
    with pytest.raises(DomainError):
        SpreadComplexitySeries(times=np.array([0.0]), C=np.array([-0.5]),
                               F=np.array([1.0]))
    with pytest.raises(DomainError):
        SpreadComplexitySeries(times=np.array([0.0]), C=np.array([0.0]),
                               F=np.array([1.5]))
    series = SpreadComplexitySeries(times=np.array([0.0]),
                                    C=np.array([-1e-14]),
                                    F=np.array([1.0 + 1e-14]))
    assert series.C[0] == 0.0
    assert series.F[0] == 1.0


def test_series_csv_and_sidecar(tmp_path):
    spectrum = eigendecompose(two_level())
    series = spread_series(spectrum, np.linspace(0, 2, 5))
    csv_path = tmp_path / "series.csv"
    cli._write_table(csv_path, cli.SERIES_HEADER, series.times, series.C,
                     series.F)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,C,F"
    assert len(lines) == 6
    back = cli._read_table(csv_path, cli.SERIES_HEADER)
    np.testing.assert_allclose(back[:, 1], series.C, atol=1e-16)

    # the long-time averages written next to the model's series
    avg = long_time_average(spectrum)
    assert avg.c_bar == pytest.approx(0.5, rel=1e-12)
    assert avg.f_bar == pytest.approx(0.5, rel=1e-12)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, 0], dtype=np.uint64)))


def test_real_split_evolution_matches_matrix_exponential():
    gen = philox(41)
    K = 30
    lc = LanczosCoefficients(a=gen.uniform(-1.0, 1.0, K),
                             b=gen.uniform(0.5, 1.5, K - 1), physical=True)
    tri = np.diag(lc.a) + np.diag(lc.b, 1) + np.diag(lc.b, -1)
    times = np.array([0.0, 0.3, 1.7, 6.0, 19.0])
    phi = evolve_amplitudes(eigendecompose(lc), times)
    for i, t in enumerate(times):
        expected = expm(-1j * tri * t)[:, 0]
        np.testing.assert_allclose(phi[i], expected, rtol=0, atol=1e-12)


# three whole slabs and a ragged fourth; three and one row; five and none
@pytest.mark.parametrize("points", [
    3 * TIME_SLAB_ROWS + TIME_SLAB_ROWS // 3,
    3 * TIME_SLAB_ROWS + 1,
    5 * TIME_SLAB_ROWS,
])
@pytest.mark.parametrize("log", [True, False])
def test_spread_series_matches_the_whole_grid_evolution(points, log):
    gen = philox(7)
    K = 60
    lc = LanczosCoefficients(a=gen.uniform(-1.0, 1.0, K),
                             b=gen.uniform(0.5, 1.5, K - 1), physical=True)
    spectrum = eigendecompose(lc)
    times = time_grid(spectrum.values, float(lc.b[0]), points, log=log)
    # the whole grid's amplitudes reduced in one piece, t = 0 pinned
    weights = np.abs(evolve_amplitudes(spectrum, times)) ** 2
    whole_c, whole_f = weights @ np.arange(K), weights[:, 0]
    whole_c[times == 0.0], whole_f[times == 0.0] = 0.0, 1.0
    series = spread_series(spectrum, times)
    assert np.array_equal(series.times, times)
    np.testing.assert_allclose(series.C, whole_c, rtol=1e-12, atol=0)
    np.testing.assert_allclose(series.F, whole_f, rtol=1e-12, atol=0)
    if not log:
        assert series.C[0] == 0.0 and series.F[0] == 1.0


def test_spread_series_checks_the_whole_grid():
    spectrum = eigendecompose(gaussian_lc(1.0, 8))
    with pytest.raises(DomainError, match="empty"):
        spread_series(spectrum, np.array([]))
    with pytest.raises(DomainError, match="finite"):
        spread_series(spectrum, np.array([0.0, np.inf]))
    grid = np.linspace(0.0, 10.0, 3 * TIME_SLAB_ROWS)
    grid[2 * TIME_SLAB_ROWS + 5] = np.nan
    with pytest.raises(DomainError, match="finite"):
        spread_series(spectrum, grid)
    # the one descending step joins two slabs, each ascending on its own
    grid = np.linspace(0.0, 10.0, 3 * TIME_SLAB_ROWS)
    grid[TIME_SLAB_ROWS:] -= 1.0
    assert np.all(np.diff(grid[:TIME_SLAB_ROWS]) > 0)
    assert np.all(np.diff(grid[TIME_SLAB_ROWS:]) > 0)
    with pytest.raises(DomainError, match="ascending"):
        spread_series(spectrum, grid)


def test_spread_series_refuses_overflowing_phases():
    spectrum = eigendecompose(gaussian_lc(1.0, 8))
    reach = np.abs(spectrum.values).max()
    # the largest |t| sets the reach, at either end of the grid
    for grid in ([0.0, 1e308], [-1e308, 0.0]):
        with pytest.raises(DomainError, match="phases lambda t overflow"):
            spread_series(spectrum, np.array(grid))
    # a finite largest phase is evolved
    series = spread_series(spectrum, np.array([0.0, 0.5 * 1e308 / reach]))
    assert np.all(np.isfinite(series.C)) and np.all(np.isfinite(series.F))


def direct_long_time_average(values, vecs, starts):
    """Reference: the K x K overlap matrix reduced in one piece."""
    block_sums = np.add.reduceat(vecs * vecs[0], starts, axis=1)
    weights = np.sum(block_sums ** 2, axis=1)
    return float(np.arange(values.size) @ weights), float(weights[0])


def random_orthogonal(gen, K):
    vecs, _ = np.linalg.qr(gen.standard_normal((K, K)))
    # the layout eigh_tridiagonal returns
    return np.asfortranarray(vecs)


def test_blocked_long_time_average_matches_direct_formula():
    gen = philox(42)
    K = 4 * AVERAGE_COLUMN_SLAB + 37
    vecs, _ = np.linalg.qr(gen.standard_normal((K, K)))
    values = np.sort(gen.uniform(-3.0, 3.0, K))
    # one exactly degenerate quartet and one pair split below the tolerance
    values[10:14] = values[10]
    values[200] = values[199] + 1e-14
    starts = np.array([0] + [k for k in range(1, K)
                             if k not in (11, 12, 13, 200)])
    c_ref, f_ref = direct_long_time_average(values, vecs, starts)
    avg = long_time_average(Spectrum(values, vecs))
    assert avg.c_bar == pytest.approx(c_ref, rel=1e-13)
    assert avg.f_bar == pytest.approx(f_ref, rel=1e-13)
    # the merge matters: summing over single levels gives other values
    c_levels, f_levels = direct_long_time_average(values, vecs,
                                                  np.arange(K))
    assert abs(f_levels - f_ref) > 1e-6 * f_ref
    assert abs(c_levels - c_ref) > 1e-6 * c_ref

    # merged blocks at the first level, across a slab edge, at the last
    # level, and in a spectrum smaller than one slab
    slab = AVERAGE_COLUMN_SLAB
    for K, (lo, hi) in ((3 * slab, (0, 4)), (3 * slab, (slab - 2, slab + 3)),
                        (3 * slab + 7, (3 * slab + 3, 3 * slab + 7)),
                        (slab - 5, (17, 20))):
        vecs = random_orthogonal(gen, K)
        values = np.sort(gen.uniform(-3.0, 3.0, K))
        values[lo:hi] = values[lo]
        starts = np.array([k for k in range(K) if not lo < k < hi])
        c_ref, f_ref = direct_long_time_average(values, vecs, starts)
        avg = long_time_average(Spectrum(values, vecs))
        assert avg.c_bar == pytest.approx(c_ref, rel=1e-13)
        assert avg.f_bar == pytest.approx(f_ref, rel=1e-13)

    # one block holding the whole spectrum: phi_n(t) = delta_n0 at all t,
    # so C_bar is zero up to roundoff and never negative
    K = 64
    vecs = random_orthogonal(gen, K)
    values = np.full(K, 0.7)
    c_ref, f_ref = direct_long_time_average(values, vecs, np.array([0]))
    avg = long_time_average(Spectrum(values, vecs))
    assert avg.c_bar >= 0.0
    assert abs(avg.c_bar - c_ref) <= 1e-14
    assert avg.f_bar == pytest.approx(f_ref, rel=1e-13)

    avg = long_time_average(Spectrum(np.array([0.3]), np.eye(1)))
    assert avg == LongTimeAverages(c_bar=0.0, f_bar=1.0)


def test_long_time_average_forms_no_large_temporary():
    gen = philox(43)
    K = 1024
    values = np.sort(gen.uniform(-3.0, 3.0, K))
    values[500:504] = values[500]
    spectrum = Spectrum(values, random_orthogonal(gen, K))
    tracemalloc.start()
    try:
        long_time_average(spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K * K * 8 / 4
