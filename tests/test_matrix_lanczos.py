"""Tests for the matrix-side tridiagonalization paths.

Lanczos and Householder are algorithmically independent, so their mutual
agreement plus the moment-pipeline consistency check triangulate all three
implementations against each other.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import lapack

from spreadq import (
    DomainError,
    _lapack,
    matrix_lanczos,
    moments_to_lanczos,
)
from spreadq.hamiltonians import (
    SpinChainSpec,
    build_spin_sector,
    domain_wall_index,
    domain_wall_state,
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


def test_full_depth_spectrum_preserved(rotated_to_e0):
    from scipy.linalg import eigh_tridiagonal
    ham, psi0 = random_symmetric(80, seed=2)
    expected = np.linalg.eigvalsh(ham)
    for lc in (lanczos_tridiagonalize(ham, psi0, 80),
               householder_hessenberg(rotated_to_e0(ham, psi0), 0)):
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


def test_methods_agree_on_random_matrices(rotated_to_e0):
    for seed in range(5):
        ham, psi0 = random_symmetric(12, seed=seed)
        lc_l = lanczos_tridiagonalize(ham, psi0, 12)
        lc_h = householder_hessenberg(rotated_to_e0(ham, psi0), 0)
        np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
        np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def test_two_by_two_methods_identical():
    ham = np.array([[1.0, 0.3], [0.3, -0.5]])
    psi0 = np.array([1.0, 0.0])
    lc_l = lanczos_tridiagonalize(ham, psi0, 2)
    lc_h = householder_hessenberg(ham, 0)
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


def test_sigma0_equals_first_lanczos_coefficient(ldos):
    spec = SpinChainSpec(L=8, h=0.6, g=1.0, seed=4)
    ham = build_spin_sector(spec).H
    state = domain_wall_state(spec).amplitudes
    e0, sigma0 = ldos(ham, state)
    lc = lanczos_tridiagonalize(ham, state, 4)
    assert abs(sigma0 - lc.b[0]) < 1e-10
    lc_h = householder_hessenberg(ham, domain_wall_index(spec))
    assert abs(sigma0 - lc_h.b[0]) < 1e-10
    assert e0 == pytest.approx(lc.a[0], abs=1e-12)


def test_block_decoupling_truncates_both_paths(norm_estimates,
                                              rotated_to_e0):
    # psi0 lives in the first 3x3 block; the 2x2 tail must not leak in,
    # nor does the rotation sending psi0 to e0 mix it in
    ham = np.zeros((5, 5))
    ham[:3, :3] = np.diag([-1.0, 0.0, 1.0])
    ham[3:, 3:] = np.diag([5.0, 6.0])
    psi0 = np.zeros(5)
    psi0[:3] = 1.0 / np.sqrt(3.0)
    lc = lanczos_tridiagonalize(ham, psi0, 5)
    assert lc.K == 3
    assert norm_estimates == [(5, 5)]
    rotated = rotated_to_e0(ham, psi0)
    assert not np.any(rotated[:3, 3:])
    lc_h = householder_hessenberg(rotated, 0)
    assert lc_h.K == 3
    np.testing.assert_allclose(lc_h.b, lc.b, atol=1e-12)
    # a partial reduction has no full T, so it estimates ||H|| as Lanczos does
    lc_p = householder_hessenberg(rotated, 0, 4)
    assert lc_p.K == 3
    assert norm_estimates == [(5, 5), (5, 5)]
    np.testing.assert_allclose(lc_p.a, lc.a, atol=1e-12)
    np.testing.assert_allclose(lc_p.b, lc.b, atol=1e-12)


def test_lanczos_without_small_residual_skips_norm_estimate(norm_estimates,
                                                           rotated_to_e0):
    ham, psi0 = random_symmetric(64, seed=5)
    lc = lanczos_tridiagonalize(ham, psi0, 20)
    assert lc.K == 20
    lc_p = householder_hessenberg(rotated_to_e0(ham, psi0), 0, 20)
    assert lc_p.K == 20
    assert norm_estimates == []


def test_spin_chain_paths_agree_at_full_depth():
    spec = SpinChainSpec(L=8, h=0.4, g=1.0, seed=8)
    ham = build_spin_sector(spec).H
    state = domain_wall_state(spec).amplitudes
    lc_l = lanczos_tridiagonalize(ham, state, ham.shape[0])
    lc_h = householder_hessenberg(ham, domain_wall_index(spec))
    assert lc_l.K == lc_h.K
    np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def test_goe_first_coefficient_matches_ldos_width(ldos):
    ham = sample_goe(300, seed=13).H
    e1 = np.zeros(300)
    e1[0] = 1.0
    lc = householder_hessenberg(ham, 0)
    assert lc.b[0] == pytest.approx(ldos(ham, e1)[1], abs=1e-10)


def test_input_validation():
    ham, psi0 = random_symmetric(6, seed=0)
    with pytest.raises(DomainError, match="psi0 norm deviates from 1"):
        lanczos_tridiagonalize(ham, psi0 * 2.0, 3)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, psi0, 7)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, psi0, 0)
    for depth in (0, 7, 2.5):
        with pytest.raises(DomainError, match="K"):
            householder_hessenberg(ham, 0, depth)
    # the start is a basis index of H: not out of range, a bool, a float
    # or a vector
    for start in (-1, 6, True, 2.0, psi0):
        with pytest.raises(DomainError, match="basis index"):
            householder_hessenberg(ham, start)
    with pytest.raises(DomainError):
        lanczos_tridiagonalize(ham, np.array([1.0, 0.0]), 2)
    with pytest.raises(DomainError, match="square"):
        householder_hessenberg(ham[:5], 0)
    with pytest.raises(DomainError, match="real"):
        householder_hessenberg(ham.astype(complex), 0)
    for complex_pair in ((ham, psi0.astype(complex)),
                         (ham.astype(complex), psi0)):
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
    # a basis index away from 0 takes the index-swap route; the sign of
    # the start vector changes no coefficient
    ham, _ = random_symmetric(64, seed=31)
    lc_h = householder_hessenberg(ham, 17)
    lc_l = lanczos_tridiagonalize(ham, unit_vector(64, 17, sign), 64)
    assert lc_h.K == lc_l.K == 64
    np.testing.assert_allclose(lc_h.a, lc_l.a, atol=1e-8)
    np.testing.assert_allclose(lc_h.b, lc_l.b, atol=1e-8)


def start_case(kind, ham, general, j, rotate):
    """The ``(H, start index)`` that ``householder_hessenberg`` takes for a
    start of ``kind``: e0, e_j, or a general unit vector, which the
    reflector ``rotate`` (the ``rotated_to_e0`` fixture) turns into e0."""
    return {"e0": (ham, 0), "ej": (ham, j),
            "general": (rotate(ham, general), 0)}[kind]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
def test_householder_leaves_caller_matrix_untouched(order, start_kind,
                                                    rotated_to_e0):
    ham, general = random_symmetric(50, seed=32)
    ham, start = start_case(start_kind, ham, general, 9, rotated_to_e0)
    ham = np.array(ham, order=order)
    before = ham.copy()
    # at full depth and at a partial one
    householder_hessenberg(ham, start)
    householder_hessenberg(ham, start, 20)
    assert np.array_equal(ham, before)


@pytest.mark.parametrize("crossover", [10 ** 9, 2],
                         ids=["dsytrd", "dsytrd_2stage"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
def test_overwrite_h_gives_the_default_coefficients(monkeypatch, crossover,
                                                    order, start_kind,
                                                    rotated_to_e0):
    # the crossover picks the full-depth kernel, as in
    # test_householder_runs_the_named_reduction
    monkeypatch.setattr(matrix_lanczos, "TWO_STAGE_MIN_ORDER", crossover)
    ham, general = random_symmetric(64, seed=78)
    ham, start = start_case(start_kind, ham, general, 5, rotated_to_e0)
    ham = np.array(ham, order=order)
    for depth in (None, 1, 20, 63):
        expected = householder_hessenberg(ham, start, depth)
        buffer = ham.copy(order="K")
        lc = householder_hessenberg(buffer, start, depth, overwrite_h=True)
        assert lc.K == expected.K
        assert np.array_equal(lc.a, expected.a)
        assert np.array_equal(lc.b, expected.b)
        # the swap and the reduction run on the caller's array; only index
        # 0 at depth 1 neither swaps nor reduces anything
        untouched = start == 0 and depth == 1
        assert np.array_equal(buffer, ham) == untouched


def test_overwrite_h_copies_what_it_cannot_reduce_in_place():
    big, _ = random_symmetric(80, seed=79)
    ham = big[:40, :40].copy()
    frozen = ham.copy()
    frozen.flags.writeable = False
    # read-only, strided, or not float64: each is copied, as by default
    for matrix in (frozen, big[::2, ::2], np.rint(8 * ham).astype(np.int64),
                   ham.astype(np.float32)):
        before = matrix.copy()
        for depth in (None, 10):
            expected = householder_hessenberg(matrix, 3, depth)
            lc = householder_hessenberg(matrix, 3, depth, overwrite_h=True)
            assert np.array_equal(lc.a, expected.a)
            assert np.array_equal(lc.b, expected.b)
        assert np.array_equal(matrix, before)


def test_overwrite_h_cuts_a_decoupled_block_at_the_same_depth(
        norm_estimates):
    # e_1 lives in the leading 3x3 block; the 2x2 tail must not leak in
    ham = np.zeros((5, 5))
    ham[:3, :3] = [[0.0, 1.0, 0.0], [1.0, 0.5, 2.0], [0.0, 2.0, -1.0]]
    ham[3:, 3:] = [[5.0, 1.0], [1.0, 6.0]]
    for depth in (None, 4):
        expected = householder_hessenberg(ham, 1, depth)
        lc = householder_hessenberg(ham.copy(), 1, depth, overwrite_h=True)
        assert expected.K == lc.K == 3
        assert np.array_equal(lc.a, expected.a)
        assert np.array_equal(lc.b, expected.b)
    # the partial reductions estimate ||H|| once each, on the n x n buffer
    assert norm_estimates == [(5, 5), (5, 5)]
    reference = lanczos_tridiagonalize(ham, unit_vector(5, 1), 5)
    np.testing.assert_allclose(lc.a, reference.a, atol=1e-12)
    np.testing.assert_allclose(lc.b, reference.b, atol=1e-12)


@pytest.mark.parametrize("n, depth", [(50, 10), (300, 40), (300, 299),
                                      (257, 130)])
def test_reduced_matrix_keeps_the_spectrum_of_h(n, depth):
    # the buffer a partial reduction leaves, made whole, is what the norm
    # estimate runs on: symmetric, headed by T, and similar to H
    ham = sample_goe(n, seed=3).H
    reduced = np.array(ham, order="F")
    diag, off = _lapack.dsytrd_leading(reduced, depth)
    whole = matrix_lanczos._reduced_matrix(reduced, np.abs(off))
    assert whole is reduced and np.array_equal(whole, whole.T)
    np.testing.assert_array_equal(np.diag(whole)[:depth], diag)
    np.testing.assert_array_equal(np.diag(whole, -1)[:depth - 1],
                                  np.abs(off))
    assert not np.any(np.tril(whole[:, :depth - 1], -2))
    expected = np.linalg.eigvalsh(ham)
    np.testing.assert_allclose(np.linalg.eigvalsh(whole), expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_in_place_reduction_holds_one_matrix():
    # sample_goe draws into one n^2 array and the reduction works on it
    n = 1000
    ham = sample_goe(n, seed=1).H
    matrix_bytes = n * n * 8
    for depth in (200, n):
        buffer = ham.copy()
        tracemalloc.start()
        try:
            householder_hessenberg(buffer, 0, depth, overwrite_h=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * matrix_bytes, depth


def test_reduction_kernel_switches_at_the_crossover_order():
    assert reduction_kernel(2) == "dsytrd"
    assert reduction_kernel(TWO_STAGE_MIN_ORDER - 1) == "dsytrd"
    assert reduction_kernel(TWO_STAGE_MIN_ORDER) == "dsytrd_2stage"
    # frm at N = 1000 and the L = 14 chain (n = 3432) fall on either side
    assert reduction_kernel(1000) == "dsytrd"
    assert reduction_kernel(3432) == "dsytrd_2stage"
    # a depth below the order takes the partial reduction at any order
    assert reduction_kernel(1000, 200) == "dsytrd_leading"
    assert reduction_kernel(3432, 3431) == "dsytrd_leading"
    assert reduction_kernel(1000, 1000) == "dsytrd"
    assert reduction_kernel(3432, 3432) == "dsytrd_2stage"


@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
def test_householder_runs_the_named_reduction(monkeypatch, start_kind,
                                              rotated_to_e0):
    ham, general = random_symmetric(64, seed=77)
    ham, start = start_case(start_kind, ham, general, 5, rotated_to_e0)
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


@pytest.mark.parametrize("n", [2, 3, 17, 64, 300])
@pytest.mark.parametrize("start_kind", ["e0", "ej", "general"])
@pytest.mark.parametrize("reduction", list(REDUCTIONS))
def test_householder_matches_exact_references(reduction, n, start_kind,
                                              rotated_to_e0):
    ham, general = random_symmetric(n, seed=40 + n)
    start = {"e0": unit_vector(n, 0), "ej": unit_vector(n, n - 1),
             "general": general}[start_kind]
    lc = householder_hessenberg(*start_case(start_kind, ham, general, n - 1,
                                            rotated_to_e0))
    assert lc.K == n
    norm = np.max(np.abs(np.linalg.eigvalsh(ham)))
    # every coefficient against the named reduction of a dense reflector's
    # rotation of H, which shares no code with householder_hessenberg's swap
    d, e = REDUCTIONS[reduction](np.asfortranarray(rotated_to_e0(ham, start)))
    np.testing.assert_allclose(lc.a, d, rtol=0, atol=1e-10 * norm)
    np.testing.assert_allclose(lc.b, np.abs(e), rtol=0, atol=1e-10 * norm)
    # (T^k)_00 against <psi|H^k|psi>, both by repeated matrix-vector products
    tri = np.diag(lc.a) + np.diag(lc.b, 1) + np.diag(lc.b, -1)
    t_vec, h_vec = unit_vector(n, 0), start.copy()
    for k in range(1, 13):
        t_vec, h_vec = tri @ t_vec, ham @ h_vec
        assert abs(t_vec[0] - start @ h_vec) <= 1e-10 * norm ** k
    np.testing.assert_allclose(np.linalg.eigvalsh(tri),
                               np.linalg.eigvalsh(ham), rtol=0,
                               atol=1e-10 * norm)


def symmetric_and_start():
    """A small sparse symmetric integer H, its leading block decoupled from
    the rest in some draws (so exact decouplings and degenerate levels turn
    up), a unit start vector with its basis index (a signed basis vector) or
    ``None`` (a general one), and a depth in 1..n, drawn uniformly."""
    def build(n):
        entries = st.lists(st.sampled_from([0] * 6 + [1, -1, 2, -3]),
                           min_size=n * n, max_size=n * n) \
            .map(lambda v: np.reshape(v, (n, n)))
        blocks = st.sampled_from(range(1, n + 1))
        basis = st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])) \
            .map(lambda js: (js[1] * unit_vector(n, js[0]), js[0]))
        general = st.lists(st.integers(-3, 3), min_size=n, max_size=n) \
            .filter(any).map(lambda v: (np.array(v) / np.linalg.norm(v), None))
        return st.tuples(entries, blocks, st.one_of(basis, general),
                         st.sampled_from(range(1, n + 1))).map(
            lambda t: (split(t[0] + t[0].T, t[1]) / 2.0, *t[2], t[3]))
    return st.integers(1, 12).flatmap(build)


def split(ham, m):
    """``ham`` with rows and columns 0..m-1 decoupled from the rest."""
    ham = ham.copy()
    ham[:m, m:] = ham[m:, :m] = 0
    return ham


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_and_start())
def test_partial_householder_against_moments_and_lanczos(rotated_to_e0,
                                                         case):
    ham, start, index, depth = case
    # a general start is reduced from e0 of H rotated to send it there
    reduced, index = (ham, index) if index is not None \
        else (rotated_to_e0(ham, start), 0)
    lc = householder_hessenberg(reduced, index, depth)
    assert 1 <= lc.K <= depth
    # reduced in the caller's array, the same coefficients and the same cut
    in_place = householder_hessenberg(reduced.copy(), index, depth,
                                      overwrite_h=True)
    assert np.array_equal(in_place.a, lc.a)
    assert np.array_equal(in_place.b, lc.b)
    norm = np.max(np.abs(np.linalg.eigvalsh(ham))) or 1.0
    # (T^k)_00 = <psi|H^k|psi> for k <= 2 depth - 1: exact while T is the
    # whole Krylov block, and past a cut (b_n <= 1e-12 ||H||) to rounding
    tri = (np.diag(lc.a) + np.diag(lc.b, 1) + np.diag(lc.b, -1)) / norm
    scaled = ham / norm
    t_vec, h_vec = unit_vector(lc.K, 0), start.copy()
    for _ in range(2 * depth - 1):
        t_vec, h_vec = tri @ t_vec, scaled @ h_vec
        assert abs(t_vec[0] - start @ h_vec) <= 1e-10
    # with every b_n well above rounding the Krylov space is well
    # conditioned, and the independent Lanczos recursion must agree
    lc_l = lanczos_tridiagonalize(ham, start, depth)
    if lc.K == lc_l.K == depth and lc.b.min(initial=norm) > 1e-3 * norm:
        np.testing.assert_allclose(lc.a, lc_l.a, rtol=0, atol=1e-10 * norm)
        np.testing.assert_allclose(lc.b, lc_l.b, rtol=0, atol=1e-10 * norm)


def test_partial_householder_follows_the_goe_coefficient_law():
    """GOE (H = (A + A^T)/2) from e1: the a_n are N(0, 1) and the
    2 b_n^2 are chi-squared with N - n degrees of freedom, all independent
    (Dumitriu & Edelman, J. Math. Phys. 43, 5830 (2002)).

    Pooled over the M members, each of 3K - 1 statistics has an exact law:
    sqrt(M) mean(a_n) ~ N(0, 1), sum a_n^2 ~ chi^2_M and
    sum 2 b_n^2 ~ chi^2_(M (N - n)).  Each two-sided p-value must exceed
    the Bonferroni threshold 1e-3 / (3K - 1).  K = 36 spans two panels of
    ``dsytrd``'s width 32.  The members are seeded, so the outcome is
    fixed; a kernel that skipped a column or a trailing update fails by
    many standard deviations.
    """
    dim, depth, members = 40, 36, 2000
    a, b = [], []
    for stream in range(members):
        lc = householder_hessenberg(sample_goe(dim, 2026, stream=stream).H,
                                    0, depth)
        assert lc.K == depth
        a.append(lc.a)
        b.append(lc.b)
    a, b = np.array(a), np.array(b)
    p_values = []
    for n in range(depth):
        z = np.sqrt(members) * a[:, n].mean()
        p_values.append(2 * stats.norm.sf(abs(z)))
        law = stats.chi2(members)
        square = np.sum(a[:, n] ** 2)
        p_values.append(2 * min(law.cdf(square), law.sf(square)))
    for n in range(1, depth):
        law = stats.chi2(members * (dim - n))
        total = np.sum(2 * b[:, n - 1] ** 2)
        p_values.append(2 * min(law.cdf(total), law.sf(total)))
    assert len(p_values) == 3 * depth - 1
    assert min(p_values) > 1e-3 / len(p_values)
