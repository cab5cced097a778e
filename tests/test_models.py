"""Tests for the survival-probability and autocorrelation models.

Expected values were frozen from independent oracles: mpmath evaluation at 60
digits for the transcendental anchors, and exact Fraction series composition
(binomial series of the exponent composed with exp) for the interpolation
moments.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadq import (
    DomainError,
    GaussianAutocorr,
    InterpolationAutocorr,
    SemicircleAutocorr,
    TruncatedQuadraticAutocorr,
    eval_autocorr,
    eval_b2,
    eval_frm_sp,
    model_from_dict,
    moments_of_model,
)

# mpmath 60-digit anchors, closed forms ln2/2, ln3-1, 2ln(5/3)-1, 10ln(21/19)-1
B2_ANCHORS = {
    0.0: 1.0,
    0.5: 0.3465735902799726547,
    1.0: 0.0986122886681096914,
    2.0: 0.0216512475319813664,
    10.0: 0.0008345855698253649157,
}

# mpmath 60-digit anchors for the full survival formulas
FRM_SP_ANCHORS = {
    (1000, 0.05): 0.2440283194377725800,
    (1000, 0.2): 0.005156886837738498858,
    (1000, 1.0): 0.002018118193835009928,
    (10, 0.3): 0.6938140218562866228,
}
FRM_SP_NO_FF_1000_02 = 0.006150437578008722913

# exact Fraction series oracle, sigma0=2, Gamma=1/2
INTERP_MOMENTS_S2 = {
    2: Fraction(4),
    4: Fraction(3120),
    6: Fraction(11981760),
    8: Fraction(107358316800),
    10: Fraction(1731487010964480),
    12: Fraction(43882976861457592320),
}
# sigma0=6/5, Gamma=1/2
INTERP_MOMENTS_S12 = {
    2: Fraction(36, 25),
    4: Fraction(2336688, 15625),
    6: Fraction(145448167104, 1953125),
    8: Fraction(21114742155671808, 244140625),
}


def test_autocorr_normalization_at_zero():
    for model in (GaussianAutocorr(1.0), SemicircleAutocorr(1.0),
                  InterpolationAutocorr(2.0, 0.5),
                  TruncatedQuadraticAutocorr(1.0)):
        assert eval_autocorr(model, 0.0) == 1.0


def test_gaussian_autocorr_values():
    model = GaussianAutocorr(sigma0=1.5)
    t = np.array([0.0, 0.3, 1.0, -1.0])
    expected = np.exp(-1.5 ** 2 * t ** 2 / 2)
    np.testing.assert_allclose(eval_autocorr(model, t), expected, rtol=1e-15)


def test_semicircle_autocorr_small_argument_branch():
    model = SemicircleAutocorr(alpha=1.0)
    # series branch must join the Bessel branch smoothly near the threshold
    ts = np.array([0.0, 1e-9, 4.9e-5, 5.1e-5, 1e-3, 1.0])
    vals = eval_autocorr(model, ts)
    assert vals[0] == 1.0
    from scipy.special import j1
    expected = np.where(ts > 0, 2 * j1(np.where(ts > 0, 2 * ts, 1.0))
                        / np.where(ts > 0, 2 * ts, 1.0), 1.0)
    np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=1e-15)


def test_interpolation_matches_gaussian_at_small_t():
    # frozen deviation 1.26387e-6 at t=0.01: dominated by the exact
    # sigma0^6 t^4 / (2 Gamma^2) = 1.28e-6 correction minus its t^6 term
    model = InterpolationAutocorr(sigma0=2.0, gamma=0.5)
    got = eval_autocorr(model, 0.01)
    gauss = math.exp(-2.0 * 0.01 ** 2)
    rel_dev = abs(got / gauss - 1.0)
    assert rel_dev == pytest.approx(1.26387433349e-6, rel=1e-6)
    assert rel_dev < 2e-6


def test_truncated_quadratic_values():
    model = TruncatedQuadraticAutocorr(sigma0=2.0)
    np.testing.assert_allclose(eval_autocorr(model, 0.5), 1 - 2 * 0.5 ** 2,
                               rtol=1e-15)


def test_autocorr_magnitude_bounded_by_one():
    grid = np.linspace(0.0, 50.0, 2001)
    for model in (GaussianAutocorr(0.7), SemicircleAutocorr(1.3),
                  InterpolationAutocorr(2.0, 0.5),
                  InterpolationAutocorr(1.2, 0.5)):
        vals = eval_autocorr(model, grid)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_autocorr_rejects_sp_models_and_bad_t():
    with pytest.raises(DomainError, match="unknown model type str"):
        eval_autocorr("frm", 1.0)
    with pytest.raises(DomainError):
        eval_autocorr(GaussianAutocorr(1.0), np.inf)
    with pytest.raises(DomainError):
        eval_autocorr(GaussianAutocorr(1.0), np.nan)


def test_model_constructor_validation():
    with pytest.raises(DomainError):
        GaussianAutocorr(sigma0=0.0)
    with pytest.raises(DomainError):
        GaussianAutocorr(sigma0=-1.0)
    with pytest.raises(DomainError):
        InterpolationAutocorr(sigma0=1.0, gamma=-0.5)
    with pytest.raises(DomainError):
        eval_frm_sp(1, 0.0)


def test_b2_anchors():
    for t, expected in B2_ANCHORS.items():
        assert eval_b2(t) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_b2_branches_agree_at_one():
    # both closed forms evaluated directly at the branch point
    lower = 1 - 2 * 1.0 + 1.0 * math.log1p(2 * 1.0)
    upper = 2 * 1.0 * math.atanh(1 / (2 * 1.0)) - 1
    assert abs(lower - upper) < 1e-12
    assert eval_b2(1.0) == pytest.approx(math.log(3) - 1, rel=1e-14)


def test_b2_monotone_decreasing_within_unit_interval_and_beyond():
    grid = np.concatenate([np.linspace(0, 1, 500), np.geomspace(1, 1e4, 500)])
    vals = eval_b2(grid)
    assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_b2_rejects_negative_t():
    with pytest.raises(DomainError):
        eval_b2(-0.1)


def test_frm_sp_anchors():
    for (dim, t), expected in FRM_SP_ANCHORS.items():
        assert eval_frm_sp(dim, t) == pytest.approx(expected, rel=1e-10)
    assert eval_frm_sp(1000, 0.2, include_form_factor=False) == pytest.approx(
        FRM_SP_NO_FF_1000_02, rel=1e-10)


def test_frm_sp_exact_at_zero():
    assert eval_frm_sp(1000, 0.0) == 1.0
    assert eval_frm_sp(2, 0.0) == 1.0


def test_frm_correlation_hole_exists_iff_form_factor_on():
    dim = 200
    fbar = 3.0 / (dim + 2)
    t = np.geomspace(1e-3, 50.0, 4000)
    with_ff = eval_frm_sp(dim, t)
    without_ff = eval_frm_sp(dim, t, include_form_factor=False)
    assert np.min(without_ff) >= fbar - 1e-12
    assert np.min(with_ff) < fbar


def test_sp_rejects_negative_time():
    with pytest.raises(DomainError):
        eval_frm_sp(100, -1.0)


def test_gaussian_moments_closed_form():
    mus = moments_of_model(GaussianAutocorr(1.0), 8)
    assert list(mus) == [1, 0, 1, 0, 3, 0, 15, 0, 105]
    mus = moments_of_model(GaussianAutocorr(0.5), 4)
    assert mus[2] == Fraction(1, 4)
    assert mus[4] == Fraction(3, 16)
    assert all(isinstance(v, Fraction) for v in mus)


def test_semicircle_moments_are_catalan():
    mus = moments_of_model(SemicircleAutocorr(1.0), 10)
    assert list(mus) == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    mus2 = moments_of_model(SemicircleAutocorr(2.0), 4)
    assert mus2[2] == 4
    assert mus2[4] == 32


def test_truncated_quadratic_moments():
    mus = moments_of_model(TruncatedQuadraticAutocorr(1.0), 8)
    assert list(mus) == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_interpolation_moments_match_exact_series():
    mus = moments_of_model(InterpolationAutocorr(2.0, 0.5), 12)
    for n, exact in INTERP_MOMENTS_S2.items():
        assert float(mus[n]) == pytest.approx(float(exact), rel=1e-9)
    for n in range(1, 12, 2):
        assert float(mus[n]) == pytest.approx(0.0, abs=1e-20)

    mus = moments_of_model(InterpolationAutocorr(1.2, 0.5), 8)
    for n, exact in INTERP_MOMENTS_S12.items():
        assert float(mus[n]) == pytest.approx(float(exact), rel=1e-9)


def test_interpolation_moments_are_the_exact_series():
    mus = moments_of_model(InterpolationAutocorr(2.0, 0.5), 12)
    assert all(mus[n] == exact
               for n, exact in INTERP_MOMENTS_S2.items())
    assert all(mus[n] == 0 for n in range(1, 12, 2))
    assert all(isinstance(v, Fraction) for v in mus)
    # the table is for sigma0 = 6/5 exactly; the float 1.2 is a nearby
    # dyadic, so the exact comparison takes rational parameters
    mus = moments_of_model(
        InterpolationAutocorr(Fraction(6, 5), Fraction(1, 2)), 8)
    assert all(mus[n] == exact
               for n, exact in INTERP_MOMENTS_S12.items())
    assert all(mus[n] == 0 for n in range(1, 8, 2))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.integers(1, 64))
def test_interpolation_low_moments_are_exact(m, n):
    # dyadic sigma0, gamma in (0, 4]: mu_2 = sigma0^2 and
    # mu_4 = 3 sigma0^4 + 12 sigma0^6 / gamma^2 hold as exact rationals
    sigma0, gamma = m / 16, n / 16
    mus = moments_of_model(InterpolationAutocorr(sigma0, gamma), 4)
    s2, g2 = Fraction(sigma0) ** 2, Fraction(gamma) ** 2
    assert mus[2] == s2
    assert mus[4] == 3 * s2**2 + 12 * s2**3 / g2


def test_interpolation_second_moment_is_variance():
    # the Gamma-dependent terms cancel at order t^2
    for sigma0, gamma in [(2.0, 0.5), (1.2, 0.5), (0.8, 2.0)]:
        mus = moments_of_model(InterpolationAutocorr(sigma0, gamma), 2)
        assert float(mus[2]) == pytest.approx(sigma0 ** 2, rel=1e-12)


def test_moment_resummation_reproduces_autocorr():
    # series sum_n mu_n (-it)^n / n! against direct evaluation; for the
    # interpolation model the Taylor radius Gamma/(2 sigma0^2) caps the window
    order = 40
    cases = [
        (GaussianAutocorr(1.0), 0.5),
        (SemicircleAutocorr(1.0), 0.5),
        (InterpolationAutocorr(2.0, 0.5), 0.8 * 0.5 / (2 * 2.0 ** 2)),
    ]
    for model, tmax in cases:
        mus = np.array(moments_of_model(model, order), dtype=float)
        for t in np.linspace(0.0, tmax, 7):
            terms = [mus[n] * (-1j * t) ** n / math.factorial(n)
                     for n in range(order + 1)]
            resummed = complex(sum(terms))
            direct = eval_autocorr(model, t)
            assert abs(resummed - direct) < 1e-8


def test_moments_of_model_validation():
    with pytest.raises(DomainError):
        moments_of_model(GaussianAutocorr(1.0), 3)
    with pytest.raises(DomainError):
        moments_of_model(GaussianAutocorr(1.0), 0)
    with pytest.raises(DomainError, match="unknown model type str"):
        moments_of_model("frm", 4)


def test_model_dict_roundtrip():
    cases = [
        ({"variant": "gaussian", "sigma0": 0.7}, GaussianAutocorr(0.7)),
        ({"variant": "truncated_quadratic", "sigma0": 1.5},
         TruncatedQuadraticAutocorr(1.5)),
        ({"variant": "interpolation", "sigma0": 2.0, "gamma": 0.5},
         InterpolationAutocorr(2.0, 0.5)),
        ({"variant": "semicircle", "alpha": 1.1}, SemicircleAutocorr(1.1)),
    ]
    for data, model in cases:
        assert model_from_dict(data) == model


def test_model_from_dict_validation():
    with pytest.raises(DomainError, match="unknown variant 'nope'"):
        model_from_dict({"variant": "nope", "sigma0": 1.0})
    with pytest.raises(DomainError, match="unknown variant 'frm'"):
        model_from_dict({"variant": "frm", "dim": 1000})
    with pytest.raises(DomainError):
        model_from_dict({"variant": "gaussian"})
    with pytest.raises(DomainError):
        model_from_dict({"variant": "gaussian", "sigma0": 1.0, "extra": 2})
