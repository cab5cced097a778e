"""Tests for GOE sampling and the Sz = 0 spin-chain sector.

The sector build is audited against a full 2^L-space oracle assembled from
Kronecker products of single-site spin-1/2 operators.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadq import AssemblyError, DomainError
from spreadq.hamiltonians import (
    SectorHamiltonian,
    SpinChainSpec,
    StateVector,
    build_spin_sector,
    domain_wall_index,
    domain_wall_state,
    is_symmetric,
    sample_goe,
    symmetrize_in_place,
    sector_basis,
)
from spreadq.matrix_lanczos import (
    householder_hessenberg,
    lanczos_tridiagonalize,
)

# kron factor index equals the bit value, so index 1 = up-spin: the mask is
# then the basis index within the 2^L space when site s acts at kron
# position L-1-s
SZ = np.diag([-0.5, 0.5])
SPLUS = np.array([[0.0, 0.0], [1.0, 0.0]])
SMINUS = SPLUS.T


def _site_op(op, site, L):
    mats = [np.eye(2)] * L
    mats[L - 1 - site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def full_space_hamiltonian(spec, fields_h):
    """2^L oracle: H0 = sum h_j s^z_j, V = sum_<ij> s_i . s_j (periodic)."""
    L = spec.L
    dim = 2 ** L
    ham = np.zeros((dim, dim))
    for site in range(L):
        ham += fields_h[site] * _site_op(SZ, site, L)
    bonds = [(i, (i + 1) % L) for i in range(L)]
    if L == 2:
        bonds = bonds[:1]
    for i, j in bonds:
        zz = _site_op(SZ, i, L) @ _site_op(SZ, j, L)
        pm = _site_op(SPLUS, i, L) @ _site_op(SMINUS, j, L)
        mp = _site_op(SMINUS, i, L) @ _site_op(SPLUS, j, L)
        ham += spec.g * (zz + 0.5 * (pm + mp))
    return ham


def test_goe_symmetric_bit_exact():
    sector = sample_goe(50, seed=7)
    assert np.array_equal(sector.H, sector.H.T)
    assert sector.H.shape[0] == 50
    assert sector.H[0, 1] == sector.H[1, 0]


def test_goe_reproducible_and_stream_separated():
    a = sample_goe(20, seed=123, stream=4)
    b = sample_goe(20, seed=123, stream=4)
    c = sample_goe(20, seed=123, stream=5)
    assert np.array_equal(a.H, b.H)
    assert not np.array_equal(a.H, c.H)


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 300])
@pytest.mark.parametrize("seed", [1, 2])
def test_goe_is_the_mean_of_the_draw_and_its_transpose(n, seed):
    # the in-place tile averaging is (A + A^T)/2 bit for bit, on every
    # side of a SYMMETRY_TILE boundary
    key = np.array([seed, 6], dtype=np.uint64)
    raw = np.random.Generator(np.random.Philox(key=key)) \
        .standard_normal((n, n))
    expected = (raw + raw.T) / 2.0
    assert np.array_equal(sample_goe(n, seed, stream=6).H.view(np.uint64),
                          expected.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 129, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_symmetrize_in_place_is_the_mean_with_the_transpose(n, order):
    raw = np.array(np.random.default_rng(n).standard_normal((n, n)),
                   order=order)
    expected = (raw + raw.T) / 2.0
    assert symmetrize_in_place(raw) is raw
    assert np.array_equal(raw.view(np.uint64), expected.view(np.uint64))


def test_goe_draw_holds_one_matrix():
    n = 600
    # the first draw in a process imports numpy.random
    sample_goe(2, seed=1)
    tracemalloc.start()
    try:
        sample_goe(n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (A + A^T)/2 out of place peaks at 3 n^2 doubles
    assert peak <= 1.1 * n * n * 8


def test_goe_variance_convention():
    # ~2.25e6 off-diagonal entries: sample variance lands within 1% of 1/2
    n = 1500
    ham = sample_goe(n, seed=11).H
    off = ham[~np.eye(n, dtype=bool)]
    assert np.var(off) == pytest.approx(0.5, rel=0.01)
    diag_var = np.var(np.diag(ham))
    assert diag_var == pytest.approx(1.0, rel=0.15)


def test_goe_semicircle_edge():
    ham = sample_goe(1000, seed=3).H
    radius = np.max(np.abs(np.linalg.eigvalsh(ham)))
    assert radius == pytest.approx(math.sqrt(2000.0), rel=0.03)


def test_goe_ldos_variance_near_half_dimension(ldos):
    # e1 initial state: E[sigma0^2] = dim/2 + 1
    n = 1000
    e1 = np.zeros(n)
    e1[0] = 1.0
    vals = [ldos(sample_goe(n, seed=21, stream=s).H, e1)[1] ** 2
            for s in range(10)]
    assert np.mean(vals) == pytest.approx(n / 2 + 1, rel=0.05)


def test_goe_rejects_tiny_dimension():
    with pytest.raises(DomainError):
        sample_goe(1, seed=0)


def test_sector_dimensions():
    assert sector_basis(4).size == 6
    assert sector_basis(14).size == 3432
    for L in (2, 4, 6, 8, 10, 12, 14):
        assert sector_basis(L).size == math.comb(L, L // 2)


def test_sector_basis_sorted_with_correct_popcounts():
    basis = sector_basis(8)
    assert np.all(np.diff(basis) > 0)
    assert all(int(m).bit_count() == 4 for m in basis)


def test_two_site_block_matches_hand_result():
    spec = SpinChainSpec(L=2, h=0.0, g=1.0, seed=0)
    sector = build_spin_sector(spec)
    np.testing.assert_allclose(sector.H, [[-0.25, 0.5], [0.5, -0.25]])
    np.testing.assert_allclose(np.linalg.eigvalsh(sector.H), [-0.75, 0.25])


def test_spin_spec_validation():
    with pytest.raises(DomainError):
        SpinChainSpec(L=5, h=1.0)
    with pytest.raises(DomainError):
        SpinChainSpec(L=0, h=1.0)
    with pytest.raises(DomainError):
        SpinChainSpec(L=22, h=1.0)
    with pytest.raises(DomainError):
        SpinChainSpec(L=4, h=-0.5)


@pytest.mark.parametrize("L,h,g,seed", [(4, 0.0, 1.0, 0), (4, 0.7, 1.0, 5),
                                        (6, 0.4, 1.0, 9), (8, 1.2, 0.3, 2)])
def test_sector_matches_full_space_oracle(L, h, g, seed):
    spec = SpinChainSpec(L=L, h=h, g=g, seed=seed)
    sector = build_spin_sector(spec)
    # the documented draw: stream 0's Philox generator, one uniform(-h, h, L)
    key = np.array([seed, 0], dtype=np.uint64)
    fields_h = np.random.Generator(np.random.Philox(key=key)) \
        .uniform(-h, h, L)
    assert fields_h.shape == (L,)
    assert np.all(np.abs(fields_h) <= h)
    full = full_space_hamiltonian(spec, fields_h)
    basis = sector_basis(L)
    sub = full[np.ix_(basis, basis)]
    np.testing.assert_allclose(sector.H, sub, atol=1e-15)
    # H must not leak out of the sector
    outside = np.setdiff1d(np.arange(2 ** L), basis)
    assert np.all(full[np.ix_(outside, basis)] == 0.0)


def test_sector_symmetric_and_reproducible():
    spec = SpinChainSpec(L=10, h=2.0, g=1.0, seed=77)
    first = build_spin_sector(spec)
    second = build_spin_sector(spec)
    assert np.array_equal(first.H, first.H.T)
    assert np.array_equal(first.H, second.H)
    other = build_spin_sector(spec, stream=1)
    assert not np.array_equal(first.H, other.H)


def test_domain_wall_state_layout():
    spec = SpinChainSpec(L=4, h=0.0)
    state = domain_wall_state(spec)
    basis = sector_basis(4)
    idx = int(np.argmax(state.amplitudes))
    assert basis[idx] == 0b0011
    assert state.amplitudes[idx] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert np.linalg.norm(state.amplitudes) == 1.0

    spec14 = SpinChainSpec(L=14, h=1.0)
    state14 = domain_wall_state(spec14)
    assert state14.amplitudes.size == 3432


@pytest.mark.parametrize("L", range(2, 15, 2))
def test_domain_wall_state_is_the_unit_vector_at_its_index(L):
    # the state bench/refcheck.py builds and the index the CLI reduces from
    spec = SpinChainSpec(L=L, h=0.5)
    idx = domain_wall_index(spec)
    expected = np.zeros(spec.dimension)
    expected[idx] = 1.0
    assert np.array_equal(domain_wall_state(spec).amplitudes, expected)
    assert sector_basis(L)[idx] == (1 << L // 2) - 1


def test_domain_wall_state_requires_the_mask(monkeypatch):
    # a basis without label 0b0011 has no domain-wall state
    from spreadq import hamiltonians

    real_basis = hamiltonians.sector_basis
    monkeypatch.setattr(hamiltonians, "sector_basis",
                        lambda L: real_basis(L)[1:])
    for build in (domain_wall_index, domain_wall_state):
        with pytest.raises(AssemblyError,
                           match="domain-wall mask 0x3 missing"):
            build(SpinChainSpec(L=4, h=0.0))


def test_domain_wall_energy_cancels_on_clean_ring(ldos):
    spec = SpinChainSpec(L=4, h=0.0, g=1.0, seed=0)
    sector = build_spin_sector(spec)
    state = domain_wall_state(spec)
    e0, _ = ldos(sector.H, state.amplitudes)
    assert e0 == pytest.approx(0.0, abs=1e-15)


def test_ldos_summary_identity_hamiltonian():
    # the LDOS of any state under the identity is one atom at 1
    psi = np.full(4, 0.5)
    for lc in (lanczos_tridiagonalize(np.eye(4), psi, 4),
               householder_hessenberg(np.eye(4), 2)):
        assert lc.K == 1
        assert lc.a[0] == pytest.approx(1.0, rel=1e-15)


def test_ldos_summary_dimension_mismatch():
    with pytest.raises(DomainError, match="dimension mismatch"):
        lanczos_tridiagonalize(np.eye(3), np.array([1.0, 0.0]), 1)
    with pytest.raises(DomainError, match="basis index in 0..2"):
        householder_hessenberg(np.eye(3), 3)


def test_ldos_summary_rejects_complex_or_unnormalized_input():
    psi = np.array([1.0, 0.0])
    with pytest.raises(DomainError, match="real"):
        lanczos_tridiagonalize(np.eye(2, dtype=complex), psi, 1)
    with pytest.raises(DomainError, match="real"):
        lanczos_tridiagonalize(np.eye(2), psi.astype(complex), 1)
    with pytest.raises(DomainError, match="psi0 norm deviates from 1"):
        lanczos_tridiagonalize(np.eye(2), 2.0 * psi, 1)


def test_state_vector_norm_enforced():
    with pytest.raises(DomainError, match="state norm deviates from 1"):
        StateVector(np.array([1.0, 1.0]))


def test_sector_hamiltonian_validation():
    with pytest.raises(DomainError):
        SectorHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# with 128-wide tiles, n = 300 spans two full tiles and a partial third one
# (rows 256..299); the examples flip an entry in a diagonal tile, in an
# off-diagonal tile, and in the partial tiles, and put a NaN on the diagonal
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       i=st.integers(0, 299), j=st.integers(0, 299),
       change=st.sampled_from(["flip", "nan", "none"]))
@example(n=300, seed=0, i=5, j=100, change="flip")
@example(n=300, seed=0, i=200, j=10, change="flip")
@example(n=300, seed=0, i=290, j=260, change="flip")
@example(n=300, seed=0, i=299, j=0, change="flip")
@example(n=300, seed=0, i=10, j=299, change="flip")
@example(n=300, seed=0, i=150, j=150, change="nan")
@example(n=1, seed=0, i=0, j=0, change="nan")
def test_is_symmetric_matches_array_equal(n, seed, i, j, change):
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [seed, 0], dtype=np.uint64)))
    raw = gen.standard_normal((n, n))
    ham = raw + raw.T
    i, j = i % n, j % n
    if change == "flip":
        ham[i, j] += 1.0
    elif change == "nan":
        ham[i, i] = np.nan
    assert is_symmetric(ham) == np.array_equal(ham, ham.T)
    if change == "nan" or (change == "flip" and i != j):
        assert not is_symmetric(ham)
    # never symmetric when not square
    assert not is_symmetric(ham[:, :-1])
