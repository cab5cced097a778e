"""Tests for the moment-side tridiagonalization.

The cross-check oracle is a monic orthogonal-polynomial Gram-Schmidt
recurrence run in exact Fraction arithmetic on a rational point-mass measure
(different algorithm from the production two-array recursion); its outputs
are frozen below.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadq import cli
from spreadq import (
    DomainError,
    GaussianAutocorr,
    InsufficientMomentsError,
    InterpolationAutocorr,
    LanczosCoefficients,
    MomentSequence,
    PositivityError,
    PrecisionError,
    SemicircleAutocorr,
    TruncatedQuadraticAutocorr,
    lanczos_to_moments,
    moments_of_model,
    moments_to_lanczos,
)
from spreadq.moment_lanczos import MAX_START_BITS

# six-atom rational measure used for the cross-algorithm check
PM_NODES = [Fraction(-3, 2), Fraction(-2, 3), Fraction(-1, 7),
            Fraction(1, 4), Fraction(5, 6), Fraction(9, 5)]
PM_WEIGHTS = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
              Fraction(1, 10), Fraction(1, 5), Fraction(1, 10)]

# frozen from the exact orthogonal-polynomial oracle
PM_A_EXPECTED = [0.045476190476190476, 0.293728303374306, 0.04467017401026803,
                 0.19117386494001434, -0.121396714936865, 0.12015770594560994]
PM_B_EXPECTED = [0.8871765003972676, 1.1153660872446396, 0.9086478865836153,
                 0.5860254982735761, 0.2787056768067237]
PM_A0_EXACT = Fraction(191, 4200)
PM_B1_SQ_EXACT = Fraction(220383, 280000)


def point_mass_moments(order):
    return [sum(w * x ** n for w, x in zip(PM_WEIGHTS, PM_NODES))
            for n in range(order + 1)]


def test_gaussian_closed_form_exact_path():
    for sigma0 in (0.5, 1.0, 2.0):
        mus = moments_of_model(GaussianAutocorr(sigma0), 40)
        lc = moments_to_lanczos(mus, 20)
        assert lc.K == 20
        np.testing.assert_array_equal(lc.a, 0.0)
        expected = sigma0 * np.sqrt(np.arange(1, 20))
        np.testing.assert_allclose(lc.b, expected, rtol=1e-14)


def test_semicircle_closed_form():
    mus = moments_of_model(SemicircleAutocorr(1.0), 40)
    lc = moments_to_lanczos(mus, 20)
    np.testing.assert_array_equal(lc.a, 0.0)
    np.testing.assert_array_equal(lc.b, 1.0)
    lc2 = moments_to_lanczos(moments_of_model(SemicircleAutocorr(1.7), 12), 6)
    np.testing.assert_allclose(lc2.b, 1.7, rtol=1e-15)


def test_float_moment_input_uses_escalating_precision():
    # integer-valued moments are exact in float64, so the result must still
    # hit the closed form
    mus = [float(v) for v in moments_of_model(GaussianAutocorr(1.0), 16).values]
    lc = moments_to_lanczos(mus, 8)
    np.testing.assert_array_equal(lc.a, 0.0)
    np.testing.assert_allclose(lc.b, np.sqrt(np.arange(1, 8)), rtol=1e-12)


def test_point_mass_measure_matches_orthopoly_oracle():
    lc = moments_to_lanczos(point_mass_moments(16), 8)
    # Krylov space of a 6-atom measure exhausts at depth 6
    assert lc.K == 6
    np.testing.assert_allclose(lc.a, PM_A_EXPECTED, rtol=1e-13)
    np.testing.assert_allclose(lc.b, PM_B_EXPECTED, rtol=1e-13)
    assert lc.a[0] == pytest.approx(float(PM_A0_EXACT), rel=1e-15)
    assert lc.b[0] == pytest.approx(math.sqrt(float(PM_B1_SQ_EXACT)), rel=1e-15)


def test_point_mass_roundtrip_is_exact_through_truncation_order():
    mu_in = point_mass_moments(16)
    lc = moments_to_lanczos(mu_in, 8)
    mu_out = lanczos_to_moments(lc, 2 * lc.K - 1)
    got = np.array(mu_out.values, dtype=float)
    expected = np.array([float(m) for m in mu_in[:2 * lc.K]])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_roundtrip_truncation_breaks_beyond_2k_minus_1():
    # order 2K walks touch the truncated index, so mu_16 must NOT match
    mus = moments_of_model(GaussianAutocorr(1.0), 16)
    lc = moments_to_lanczos(mus, 8)
    mu_out = lanczos_to_moments(lc, 16)
    assert float(mu_out.values[14]) == pytest.approx(float(mus.values[14]),
                                                     rel=1e-12)
    assert abs(float(mu_out.values[16]) / float(mus.values[16]) - 1) > 1e-3


def test_point_mass_spectrum_recovered():
    # eigenvalues of the tridiagonal matrix are the measure's atoms and the
    # squared first components are the weights
    from scipy.linalg import eigh_tridiagonal
    lc = moments_to_lanczos(point_mass_moments(16), 8)
    lam, vecs = eigh_tridiagonal(lc.a, lc.b)
    np.testing.assert_allclose(lam, [float(x) for x in PM_NODES], rtol=1e-12)
    np.testing.assert_allclose(vecs[0] ** 2, [float(w) for w in PM_WEIGHTS],
                               rtol=1e-10)


def test_truncated_quadratic_positivity_violation():
    mus = moments_of_model(TruncatedQuadraticAutocorr(1.0), 8)
    formal = moments_to_lanczos(mus, 4, formal=True)
    assert formal.violation_depth == 2
    assert not formal.physical
    with pytest.raises(PositivityError) as err:
        moments_to_lanczos(mus, 4)
    assert err.value.depth == 2


def test_truncated_quadratic_formal_mode():
    sigma0 = 1.5
    mus = moments_of_model(TruncatedQuadraticAutocorr(sigma0), 12)
    lc = moments_to_lanczos(mus, 6, formal=True)
    assert not lc.physical
    assert lc.violation_depth == 2
    # exhausts at K=3 with a sign-carrying second coefficient
    assert lc.K == 3
    np.testing.assert_array_equal(lc.a, 0.0)
    np.testing.assert_allclose(lc.b, [sigma0, -sigma0], rtol=1e-14)
    # and the signed walk-sum inverts it exactly
    mu_back = lanczos_to_moments(lc, 6)
    np.testing.assert_allclose(np.array(mu_back.values, dtype=float),
                               [float(v) for v in mus.values[:7]],
                               rtol=1e-14, atol=1e-14)


def test_gaussian_moments_are_physical():
    mus = moments_of_model(GaussianAutocorr(1.0), 20)
    lc = moments_to_lanczos(mus, 10, formal=True)
    assert lc.violation_depth is None
    assert lc.physical


def test_moment_sequence_validation():
    with pytest.raises(DomainError):
        MomentSequence((2.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        MomentSequence(())
    seq = MomentSequence((1, 0, 1))
    assert seq.values == (1, 0, 1)
    np.testing.assert_array_equal(np.array(seq.values, dtype=float),
                                  [1.0, 0.0, 1.0])


def test_insufficient_moments_rejected():
    with pytest.raises(InsufficientMomentsError):
        moments_to_lanczos([1, 0, 1, 0, 3], 3)
    with pytest.raises(DomainError):
        moments_to_lanczos([1, 0, 1], 0)


def test_exhaustion_on_point_mass():
    # single atom at x=2: Krylov space is one-dimensional
    lc = moments_to_lanczos([1, 2, 4, 8, 16], 2)
    assert lc.K == 1
    assert lc.a[0] == pytest.approx(2.0, rel=1e-15)
    assert lc.b.shape == (0,)


def test_csv_roundtrip(tmp_path):
    lc = moments_to_lanczos(point_mass_moments(16), 8)
    path = tmp_path / "coeffs.csv"
    cli._write_table(path, cli.COEFFS_HEADER, *cli._coeff_columns(lc))
    back = cli._read_table(path, cli.COEFFS_HEADER)
    np.testing.assert_array_equal(back[:, 0], np.arange(lc.K))
    np.testing.assert_array_equal(back[:, 1], lc.a)
    np.testing.assert_array_equal(back[1:, 2], lc.b)
    text = path.read_text().splitlines()
    assert text[0] == "n,a_n,b_n"
    assert len(text) == 1 + lc.K


def test_lanczos_coefficients_validation():
    with pytest.raises(DomainError):
        LanczosCoefficients(a=np.array([0.0, 0.0]), b=np.array([-1.0]),
                            physical=True)
    with pytest.raises(DomainError):
        LanczosCoefficients(a=np.array([0.0, 0.0]), b=np.array([1.0, 2.0]),
                            physical=True)
    lc = LanczosCoefficients(a=np.array([0.0, 0.0]), b=np.array([-1.0]),
                             physical=False)
    # a negative b_n carries the sign of b_n^2 into the walk sum
    assert lanczos_to_moments(lc, 2).values == (1, 0, -1)


def test_hankel_detects_truncated_quadratic_failure():
    # leading 3x3 minor goes negative exactly where the recursion halts
    mus = moments_of_model(TruncatedQuadraticAutocorr(1.0), 8).values
    hm = np.array([[mus[i + j] for j in range(3)] for i in range(3)],
                  dtype=float)
    assert np.linalg.det(hm[:2, :2]) > 0
    assert np.linalg.det(hm) < 0


def test_raw_rational_list_keeps_exact_route(recursion_calls):
    # a precision floor never moves a raw list of rationals off the exact path
    lc = moments_to_lanczos(point_mass_moments(16), 8, precision_bits=256)
    assert recursion_calls == [True]
    np.testing.assert_allclose(lc.a, PM_A_EXPECTED, rtol=1e-13)
    np.testing.assert_allclose(lc.b, PM_B_EXPECTED, rtol=1e-13)


def test_precision_floor_above_ceiling_is_domain_error():
    # the escalation could not make a single pass, so the floor is at fault
    floats = [float(m) for m in point_mass_moments(16)]
    with pytest.raises(DomainError):
        moments_to_lanczos(floats, 8, precision_bits=1 << 15)


def test_start_without_a_second_level_is_domain_error(recursion_calls):
    # a result needs two agreeing levels: a start above half the ceiling
    # leaves one, so it is refused before any recursion
    floats = [float(m) for m in moments_of_model(GaussianAutocorr(1.0),
                                                 16).values]
    with pytest.raises(DomainError, match="no second level"):
        moments_to_lanczos(floats, 8, precision_bits=MAX_START_BITS + 1)
    # 12 K bits: K = 683 starts at 8196
    deep = MomentSequence((1,) + (0,) * 1366, precision_bits=128)
    with pytest.raises(DomainError, match="8196 bits"):
        moments_to_lanczos(deep, 683)
    assert recursion_calls == []
    lc = moments_to_lanczos(floats, 8, precision_bits=MAX_START_BITS)
    assert recursion_calls == [False, False]
    np.testing.assert_allclose(lc.b, np.sqrt(np.arange(1, 8)), rtol=1e-14)


def test_levels_that_never_agree_raise_precision_error(monkeypatch):
    # every level perturbs the last b_n^2 differently, so no two agree
    import mpmath

    from spreadq import moment_lanczos

    kernel = moment_lanczos._recursion
    levels = []

    def drifting(mu, K, formal, exact):
        a, b2, violation = kernel(mu, K, formal, exact)
        levels.append(mpmath.mp.prec)
        b2[-1] *= 1 + len(levels) * 1e-3
        return a, b2, violation

    monkeypatch.setattr(moment_lanczos, "_recursion", drifting)
    floats = [float(m) for m in moments_of_model(GaussianAutocorr(1.0),
                                                 16).values]
    with pytest.raises(PrecisionError, match="16384 bits"):
        moments_to_lanczos(floats, 8)
    assert levels == [128 << k for k in range(8)]


@pytest.mark.parametrize("sigma0, gamma", [(1.2, 0.5), (0.8, 2.0)])
def test_interpolation_floating_route_matches_exact_route(recursion_calls,
                                                          sigma0, gamma):
    moments = moments_of_model(InterpolationAutocorr(sigma0, gamma), 48)
    floating = moments_to_lanczos(moments, 24)
    assert recursion_calls and not any(recursion_calls)
    exact = moments_to_lanczos(list(moments.values), 24)
    assert recursion_calls[-1] is True
    np.testing.assert_array_equal(floating.a, exact.a)
    np.testing.assert_array_equal(floating.b, exact.b)


def test_tagged_rationals_are_converted_at_every_precision_level():
    # six atoms 1e-4 apart: rounding the moments once to the 128-bit floor
    # puts b_5 off by a factor of ~26, so each level must convert afresh
    nodes = [1 + Fraction(j, 10**4) for j in range(6)]
    mu = [sum(x**n for x in nodes) / 6 for n in range(13)]
    exact = moments_to_lanczos(mu, 6)
    floating = moments_to_lanczos(MomentSequence(mu, precision_bits=128), 6)
    np.testing.assert_array_equal(floating.a, exact.a)
    np.testing.assert_array_equal(floating.b, exact.b)


# derandomized and without an example database, so every run draws the
# same examples
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
dyadic = st.integers(-64, 64).map(lambda i: i / 16)
dyadic_positive = st.integers(1, 64).map(lambda i: i / 16)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda K: st.tuples(
    st.lists(dyadic, min_size=K, max_size=K),
    st.lists(dyadic_positive, min_size=K - 1, max_size=K - 1))))
def test_roundtrip_is_exact_for_dyadic_jacobi_measures(coefficients):
    # a K x K Jacobi matrix with dyadic a_n, b_n is a K-atom measure with
    # rational moments; the exact path must give back a_n, b_n and so mu
    a, b = coefficients
    lc = LanczosCoefficients(np.array(a), np.array(b))
    K = lc.K
    mu = lanczos_to_moments(lc, 2 * K).values
    back = moments_to_lanczos(mu, K)
    np.testing.assert_array_equal(back.a, lc.a)
    np.testing.assert_array_equal(back.b, lc.b)
    assert lanczos_to_moments(back, 2 * K).values == mu


@PROPERTY
@given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=12),
                          st.integers(1, 9)),
                min_size=1, max_size=6, unique_by=lambda atom: atom[0]))
def test_roundtrip_reproduces_rational_point_mass_moments(atoms):
    # K atoms at rational nodes: depth K exhausts the measure, so the
    # tridiagonal matrix reproduces every moment through order 2K
    total = sum(w for _, w in atoms)
    K = len(atoms)
    mu = [sum(Fraction(w, total) * x**n for x, w in atoms)
          for n in range(2 * K + 1)]
    back = lanczos_to_moments(moments_to_lanczos(mu, K), 2 * K).values
    back = np.array(back, dtype=float)
    np.testing.assert_allclose(back, [float(m) for m in mu], rtol=1e-11,
                               atol=1e-12)
