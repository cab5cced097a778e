"""Tests for the matrix-side tridiagonalization paths.

Lanczos and Householder are algorithmically independent, so their mutual
agreement plus the moment-pipeline consistency check triangulate all three
implementations against each other.
"""
import numpy as np
import pytest
from scipy.linalg import lapack

from spreadq import (
    DomainError,
    NormalizationError,
    _lapack,
    matrix_lanczos,
    moments_to_lanczos,
)
from spreadq.hamiltonians import (
    SpinChainSpec,
    build_spin_sector,
    domain_wall_state,
    ldos_summary,
    sample_goe,
)
from spreadq.matrix_lanczos import (
    TWO_STAGE_MIN_ORDER,
    householder_hessenberg,
    lanczos_tridiagonalize,
    reduction_kernel,
    spectral_norm_estimate,
)


def random_symmetric(n, seed):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                            dtype=np.uint64)))
    raw = gen.standard_normal((n, n))
    vec = gen.standard_normal(n)
    return (raw + raw.T) / 2, vec / np.linalg.norm(vec)


@pytest.fixture
def norm_estimates(monkeypatch):
    """Count the power-iteration norm estimates the Lanczos path runs."""
    calls = []
    estimate = matrix_lanczos.spectral_norm_estimate

    def counted(matrix):
        calls.append(matrix.shape)
        return estimate(matrix)

    monkeypatch.setattr(matrix_lanczos, "spectral_norm_estimate", counted)
    return calls


def test_pauli_x_structure():
    ham = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi0 = np.array([1.0, 0.0])
    lc = lanczos_tridiagonalize(ham, psi0, 2)
    np.testing.assert_allclose(lc.a, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(lc.b, [1.0], rtol=1e-15)


def test_three_level_closed_form():
    ham = np.diag([-1.0, 0.0, 1.0])
    psi0 = np.full(3, 1.0 / np.sqrt(3.0))
    lc = lanczos_tridiagonalize(ham, psi0, 3)
    np.testing.assert_allclose(lc.a, 0.0, atol=1e-15)
    np.testing.assert_allclose(lc.b, [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)],
                               rtol=1e-14)


def test_identity_exhausts_immediately(norm_estimates):
    lc = lanczos_tridiagonalize(np.eye(5), np.full(5, 5 ** -0.5), 5)
    assert lc.K == 1
    # the zero residual is the first near the cut: one norm estimate
    assert norm_estimates == [(5, 5)]
    assert lc.a[0] == pytest.approx(1.0, rel=1e-15)


def test_krylov_basis_orthonormal():
    ham, psi0 = random_symmetric(60, seed=1)
    lc, basis = lanczos_tridiagonalize(ham, psi0, 60, return_basis=True)
    assert basis.shape == (60, 60)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(60))) < 1e-10
    # and the basis actually tridiagonalizes H with the reported coefficients
    tri = basis @ ham @ basis.T
    np.testing.assert_allclose(np.diag(tri), lc.a, atol=1e-10)
    np.testing.assert_allclose(np.diag(tri, -1), lc.b, atol=1e-10)
    off = tri - np.diag(np.diag(tri)) - np.diag(np.diag(tri, 1), 1) \
        - np.diag(np.diag(tri, -1), -1)
    assert np.max(np.abs(off)) < 1e-9


def test_full_depth_spectrum_preserved():
    from scipy.linalg import eigh_tridiagonal
    ham, psi0 = random_symmetric(80, seed=2)
    expected = np.linalg.eigvalsh(ham)
    for lc in (lanczos_tridiagonalize(ham, psi0, 80),
               householder_hessenberg(ham, psi0)):
        assert lc.K == 80
        lam = eigh_tridiagonal(lc.a, lc.b, eigvals_only=True)
        np.testing.assert_allclose(lam, expected, atol=1e-8)


def test_partial_depth_eigenvalues_interlace():
    ham, psi0 = random_symmetric(40, seed=3)
    lc = lanczos_tridiagonalize(ham, psi0, 12)
    lam = np.linalg.eigvalsh(np.diag(lc.a) + np.diag(lc.b, 1)
                             + np.diag(lc.b, -1))
    full = np.linalg.eigvalsh(ham)
    assert lam.min() >= full.min() - 1e-10
    assert lam.max() <= full.max() + 1e-10


def test_methods_agree_on_random_matrices():
    for seed in range(5):
        ham, psi0 = random_symmetric(12, seed=seed)
        lc_l = lanczos_tridiagonalize(ham, psi0, 12)
        lc_h = householder_hessenberg(ham, psi0)
        np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
        np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def test_two_by_two_methods_identical():
    ham = np.array([[1.0, 0.3], [0.3, -0.5]])
    psi0 = np.array([1.0, 0.0])
    lc_l = lanczos_tridiagonalize(ham, psi0, 2)
    lc_h = householder_hessenberg(ham, psi0)
    np.testing.assert_allclose(lc_h.a, lc_l.a, rtol=1e-14)
    np.testing.assert_allclose(lc_h.b, lc_l.b, rtol=1e-14)


def test_moment_pipeline_consistency():
    ham, psi0 = random_symmetric(12, seed=11)
    vec = psi0.copy()
    mus = [1.0]
    for _ in range(10):
        vec = ham @ vec
        mus.append(float(psi0 @ vec))
    lc_m = moments_to_lanczos(mus, 5)
    lc_l = lanczos_tridiagonalize(ham, psi0, 5)
    np.testing.assert_allclose(lc_m.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_m.b, lc_l.b, atol=1e-8)


def test_sigma0_equals_first_lanczos_coefficient():
    spec = SpinChainSpec(L=8, h=0.6, g=1.0, seed=4)
    sector = build_spin_sector(spec)
    state = domain_wall_state(spec)
    summary = ldos_summary(sector, state)
    lc = lanczos_tridiagonalize(sector, state, 4)
    assert abs(summary.sigma0 - lc.b[0]) < 1e-10
    lc_h = householder_hessenberg(sector, state)
    assert abs(summary.sigma0 - lc_h.b[0]) < 1e-10
    assert summary.e0 == pytest.approx(lc.a[0], abs=1e-12)


def test_block_decoupling_truncates_both_paths(norm_estimates):
    # psi0 lives in the first 3x3 block; the 2x2 tail must not leak in
    ham = np.zeros((5, 5))
    ham[:3, :3] = np.diag([-1.0, 0.0, 1.0])
    ham[3:, 3:] = np.diag([5.0, 6.0])
    psi0 = np.zeros(5)
    psi0[:3] = 1.0 / np.sqrt(3.0)
    lc = lanczos_tridiagonalize(ham, psi0, 5)
    assert lc.K == 3
    assert norm_estimates == [(5, 5)]
    lc_h = householder_hessenberg(ham, psi0)
    assert lc_h.K == 3
    np.testing.assert_allclose(lc_h.b, lc.b, atol=1e-12)


def test_lanczos_without_small_residual_skips_norm_estimate(norm_estimates):
    ham, psi0 = random_symmetric(64, seed=5)
    lc = lanczos_tridiagonalize(ham, psi0, 20)
    assert lc.K == 20
    assert norm_estimates == []


def test_spin_chain_paths_agree_at_full_depth():
    spec = SpinChainSpec(L=8, h=0.4, g=1.0, seed=8)
    sector = build_spin_sector(spec)
    state = domain_wall_state(spec)
    dim = sector.dimension
    lc_l = lanczos_tridiagonalize(sector, state, dim)
    lc_h = householder_hessenberg(sector, state)
    assert lc_l.K == lc_h.K
    np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def test_goe_first_coefficient_matches_ldos_width():
    sector = sample_goe(300, seed=13)
    e1 = np.zeros(300)
    e1[0] = 1.0
    lc = householder_hessenberg(sector, e1)
    assert lc.b[0] == pytest.approx(ldos_summary(sector, e1).sigma0,
                                    abs=1e-10)


def test_input_validation():
    ham, psi0 = random_symmetric(6, seed=0)
    with pytest.raises(NormalizationError):
        lanczos_tridiagonalize(ham, psi0 * 2.0, 3)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, psi0, 7)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, psi0, 0)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, np.array([1.0, 0.0]), 2)
    for complex_pair in ((ham, psi0.astype(complex)),
                         (ham.astype(complex), psi0)):
        with pytest.raises(DomainError, match="real"):
            householder_hessenberg(*complex_pair)
        with pytest.raises(DomainError, match="real"):
            lanczos_tridiagonalize(*complex_pair, 3)


def test_spectral_norm_estimate_close():
    ham, _ = random_symmetric(50, seed=21)
    est = spectral_norm_estimate(ham)
    true = np.max(np.abs(np.linalg.eigvalsh(ham)))
    assert est <= true * (1 + 1e-12)
    assert est > 0.8 * true


def unit_vector(n, j, sign=1.0):
    vec = np.zeros(n)
    vec[j] = sign
    return vec


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_householder_from_basis_vector_matches_lanczos(sign):
    # a basis vector away from index 0 takes the index-swap route
    ham, _ = random_symmetric(64, seed=31)
    start = unit_vector(64, 17, sign)
    lc_h = householder_hessenberg(ham, start)
    lc_l = lanczos_tridiagonalize(ham, start, 64)
    assert lc_h.K == lc_l.K == 64
    np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def test_householder_reflector_path_near_basis_vector():
    # two nonzero entries: the general reflector route, next to the swap one
    ham, _ = random_symmetric(64, seed=31)
    start = unit_vector(64, 17) + 1e-3 * unit_vector(64, 40)
    start /= np.linalg.norm(start)
    lc_h = householder_hessenberg(ham, start)
    lc_l = lanczos_tridiagonalize(ham, start, 64)
    assert lc_h.K == lc_l.K == 64
    np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)
    # a 1e-3 tilt moves b_1 only slightly off the basis-vector value
    lc_e = householder_hessenberg(ham, unit_vector(64, 17))
    assert abs(lc_h.b[0] - lc_e.b[0]) < 1e-2 * lc_e.b[0]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
def test_householder_leaves_caller_matrix_untouched(order, start_kind):
    ham, general = random_symmetric(50, seed=32)
    ham = np.array(ham, order=order)
    start = {"e0": unit_vector(50, 0), "ej": unit_vector(50, 9),
             "general": general}[start_kind]
    before = ham.copy()
    householder_hessenberg(ham, start)
    assert np.array_equal(ham, before)


def test_reduction_kernel_switches_at_the_crossover_order():
    assert reduction_kernel(2) == "dsytrd"
    assert reduction_kernel(TWO_STAGE_MIN_ORDER - 1) == "dsytrd"
    assert reduction_kernel(TWO_STAGE_MIN_ORDER) == "dsytrd_2stage"
    # frm at N = 1000 and the L = 14 chain (n = 3432) fall on either side
    assert reduction_kernel(1000) == "dsytrd"
    assert reduction_kernel(3432) == "dsytrd_2stage"


@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
def test_householder_runs_the_named_reduction(monkeypatch, start_kind):
    ham, general = random_symmetric(64, seed=77)
    start = {"e0": unit_vector(64, 0), "ej": unit_vector(64, 5),
             "general": general}[start_kind]
    results, calls = {}, []
    for crossover in (10 ** 9, 2):
        monkeypatch.setattr(matrix_lanczos, "TWO_STAGE_MIN_ORDER", crossover)
        name = reduction_kernel(64)
        kernel = getattr(_lapack, name)
        monkeypatch.setattr(_lapack, name,
                            lambda a, name=name, kernel=kernel:
                            calls.append(name) or kernel(a))
        results[name] = householder_hessenberg(ham, start)
    assert calls == ["dsytrd", "dsytrd_2stage"]
    one, two = results["dsytrd"], results["dsytrd_2stage"]
    norm = np.max(np.abs(np.linalg.eigvalsh(ham)))
    np.testing.assert_allclose(one.a, two.a, rtol=0, atol=1e-12 * norm)
    np.testing.assert_allclose(one.b, two.b, rtol=0, atol=1e-12 * norm)


# the two LAPACK reductions to tridiagonal form, each returning (d, e)
REDUCTIONS = {
    "dsytrd_2stage": _lapack.dsytrd_2stage,
    "dsytrd": lambda a: lapack.dsytrd(a, lower=1)[1:3],
}


def reference_tridiagonal(ham, start, reduction):
    """a_n and |b_n| of H from ``start``, computed apart from the code under
    test: a dense reflector sending e1 to +-start, then ``reduction``."""
    v = start.copy()
    v[0] += 1.0 if start[0] >= 0 else -1.0
    reflector = np.eye(start.size) - 2.0 * np.outer(v, v) / (v @ v)
    rotated = np.asfortranarray(reflector @ ham @ reflector)
    d, e = REDUCTIONS[reduction](rotated)
    return d, np.abs(e)


@pytest.mark.parametrize("n", [2, 3, 17, 64, 300])
@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
@pytest.mark.parametrize("reduction", list(REDUCTIONS))
def test_householder_matches_exact_references(reduction, n, start_kind):
    ham, general = random_symmetric(n, seed=40 + n)
    start = {"e0": unit_vector(n, 0), "ej": unit_vector(n, n - 1),
             "general": general}[start_kind]
    lc = householder_hessenberg(ham, start)
    assert lc.K == n
    norm = np.max(np.abs(np.linalg.eigvalsh(ham)))
    # every coefficient against the named reduction of the test's own
    # rotation, which shares no code with householder_hessenberg's
    d, e = reference_tridiagonal(ham, start, reduction)
    np.testing.assert_allclose(lc.a, d, rtol=0, atol=1e-10 * norm)
    np.testing.assert_allclose(lc.b, e, rtol=0, atol=1e-10 * norm)
    # (T^k)_00 against <psi|H^k|psi>, both by repeated matrix-vector products
    tri = np.diag(lc.a) + np.diag(lc.b, 1) + np.diag(lc.b, -1)
    t_vec, h_vec = unit_vector(n, 0), start.copy()
    for k in range(1, 13):
        t_vec, h_vec = tri @ t_vec, ham @ h_vec
        assert abs(t_vec[0] - start @ h_vec) <= 1e-10 * norm ** k
    np.testing.assert_allclose(np.linalg.eigvalsh(tri),
                               np.linalg.eigvalsh(ham), rtol=0,
                               atol=1e-10 * norm)
