"""Tests for fits, feature detection, and ensemble statistics.

Synthetic inputs with known closed-form answers throughout; the statistical
examples (GOE profile, spin-chain variances) live in the acceptance suite
where full ensembles are generated.
"""
import numpy as np
import pytest

from spreadq import LanczosCoefficients, cli
from spreadq.analysis import (
    EnsembleSeries,
    FitResult,
    coefficient_stats,
    detect_peak_plateau,
    ensemble_average,
    fit_bn_linear,
    fit_bn_power,
    fit_decay_exponent,
    fit_goe_profile,
)
from spreadq.errors import FitError, NotPowerLawError, WindowError
from spreadq.evolution import SpreadComplexitySeries


def test_power_fit_exact_square_root():
    b = np.sqrt(np.arange(1, 31))
    fit = fit_bn_power(b)
    assert fit.model_tag == "n1*n^n2"
    assert fit.params["n1"] == pytest.approx(1.0, abs=1e-12)
    assert fit.params["n2"] == pytest.approx(0.5, abs=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.window == (2, 15)


def test_power_fit_custom_window_recorded():
    b = 2.0 * np.arange(1, 21) ** 1.5
    fit = fit_bn_power(b, window=(3, 9))
    assert fit.window == (3, 9)
    assert fit.params["n1"] == pytest.approx(2.0, rel=1e-12)
    assert fit.params["n2"] == pytest.approx(1.5, abs=1e-12)


def test_power_fit_rejects_bad_input():
    with pytest.raises(FitError):
        fit_bn_power(np.array([1.0, 2.0]), window=(1, 2))
    with pytest.raises(FitError):
        fit_bn_power(np.array([1.0, -2.0, 3.0, 4.0]), window=(1, 4))


def test_linear_fit_with_and_without_origin():
    n = np.arange(1, 11)
    b = 3.0 * n + 0.7
    fit = fit_bn_linear(b, window=(1, 10))
    assert fit.params["slope"] == pytest.approx(3.0, rel=1e-12)
    assert fit.params["intercept"] == pytest.approx(0.7, rel=1e-10)
    origin = fit_bn_linear(3.0 * n, window=(1, 10), through_origin=True)
    assert origin.params["slope"] == pytest.approx(3.0, rel=1e-14)
    assert origin.params["intercept"] == 0.0
    assert origin.residual_rms < 1e-12


def test_linear_fit_of_a_coefficient_set_b_array():
    lc = LanczosCoefficients(a=np.zeros(6), b=2.5 * np.arange(1, 6.0),
                             physical=True)
    fit = fit_bn_linear(lc.b, window=(1, 5), through_origin=True)
    assert fit.params["slope"] == pytest.approx(2.5, rel=1e-14)


def test_goe_profile_fit_exact():
    dim = 500
    n = np.arange(1, dim)
    b = np.sqrt((dim - n) / 2.0)
    fit = fit_goe_profile(b, dim)
    assert fit.model_tag == "n1*(N-n)^n2"
    assert fit.params["n1"] == pytest.approx(2 ** -0.5, abs=1e-12)
    assert fit.params["n2"] == pytest.approx(0.5, abs=1e-12)
    assert fit.window == (1, dim - 20)


def test_decay_fit_exact_power_law():
    t = np.geomspace(1.0, 100.0, 200)
    fit = fit_decay_exponent((t, t ** -3), window=(2.0, 50.0))
    assert fit.params["gamma"] == pytest.approx(3.0, abs=1e-10)
    assert fit.residual_rms < 1e-12
    assert fit.window == (2.0, 50.0)


def test_decay_fit_order_invariant():
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [3, 0], dtype=np.uint64)))
    t = np.geomspace(0.5, 80.0, 150)
    f = 2.0 * t ** -1.7
    perm = gen.permutation(t.size)
    fit_sorted = fit_decay_exponent((t, f), window=(1.0, 50.0))
    fit_shuffled = fit_decay_exponent((t[perm], f[perm]), window=(1.0, 50.0))
    assert fit_shuffled.params["gamma"] == pytest.approx(
        fit_sorted.params["gamma"], rel=1e-12)


def test_decay_fit_rejects_gaussian_curvature():
    t = np.geomspace(0.1, 10.0, 300)
    f = np.exp(-(t ** 2) / 2)
    with pytest.raises(NotPowerLawError):
        fit_decay_exponent((t, f), window=(1.0, 8.0))


def test_decay_fit_envelope_strips_oscillations():
    t = np.geomspace(0.5, 60.0, 3000)
    f = t ** -3 * (np.cos(7.0 * t) ** 2 + 1e-4)
    fit = fit_decay_exponent((t, f), window=(1.0, 40.0), envelope=True)
    assert fit.params["gamma"] == pytest.approx(3.0, abs=0.15)


def test_decay_fit_rejects_nonpositive_values():
    t = np.linspace(1.0, 10.0, 50)
    f = t ** -2
    f[10] = 0.0
    with pytest.raises(FitError):
        fit_decay_exponent((t, f), window=(1.0, 10.0))


def test_fit_result_serialization():
    fit = FitResult(model_tag="linear", params={"slope": 2.0},
                    residual_rms=0.1, window=(1, 5))
    data = fit.to_dict()
    assert data == {"model": "linear", "params": {"slope": 2.0},
                    "residual_rms": 0.1, "window": [1, 5]}
    with pytest.raises(FitError):
        FitResult(model_tag="linear", params={}, residual_rms=np.nan,
                  window=(1, 5))
    with pytest.raises(FitError):
        FitResult(model_tag="linear", params={}, residual_rms=0.0,
                  window=(5, 1))


def test_coefficient_stats_constant_sequences():
    lc = LanczosCoefficients(a=np.full(10, 0.3), b=np.full(9, 1.7),
                             physical=True)
    stats = coefficient_stats([lc, lc])
    assert stats.var_a == pytest.approx(0.0, abs=1e-30)
    assert stats.var_b == pytest.approx(0.0, abs=1e-30)
    assert stats.realizations == 2


def test_coefficient_stats_known_variance():
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [5, 0], dtype=np.uint64)))
    lcs = []
    for _ in range(6):
        a = rng.normal(0.0, 2.0, size=400)
        b = np.abs(rng.normal(5.0, 1.0, size=399)) + 0.1
        lcs.append(LanczosCoefficients(a=a, b=b, physical=True))
    stats = coefficient_stats(lcs)
    assert stats.var_a == pytest.approx(4.0, rel=0.2)
    assert stats.var_b == pytest.approx(1.0, rel=0.2)


def test_histogram_csv(tmp_path):
    lc = LanczosCoefficients(a=np.linspace(-1, 1, 200),
                             b=np.linspace(0.5, 1.5, 199), physical=True)
    counts, edges = coefficient_stats([lc]).hist_a
    assert counts.sum() == 200
    # Freedman-Diaconis bins
    np.testing.assert_array_equal(edges,
                                  np.histogram_bin_edges(lc.a, bins="fd"))
    path = tmp_path / "hist.csv"
    cli._write_table(path, cli.HISTOGRAM_HEADER, edges[:-1], edges[1:],
                     counts)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == counts.size + 1
    back = cli._read_table(path, cli.HISTOGRAM_HEADER)
    np.testing.assert_array_equal(back[:, 0], edges[:-1])
    np.testing.assert_array_equal(back[:, 1], edges[1:])
    np.testing.assert_array_equal(back[:, 2], counts)


@pytest.mark.parametrize("kind", ["normal", "ties", "constant"])
def test_histograms_match_numpy_fd_rule_bit_for_bit(kind):
    # the bin count is computed without np.percentile (which imports
    # numpy.ma); edges and counts must still be numpy's bins="fd" exactly
    rng = np.random.default_rng(17)
    for size in (2, 3, 4, 5, 17, 64, 399, 1000):
        a = {"normal": rng.standard_normal(size) * 7.3,
             "ties": rng.integers(-3, 4, size).astype(float),
             "constant": np.full(size, 0.3)}[kind]
        lc = LanczosCoefficients(a=a, b=np.ones(size - 1), physical=True)
        hist_counts, hist_edges = coefficient_stats([lc]).hist_a
        counts, edges = np.histogram(a, bins="fd")
        assert np.array_equal(hist_edges, edges)
        assert np.array_equal(hist_counts, counts)


def test_plateau_monotone_saturation_ratio_one():
    t = np.geomspace(0.01, 200.0, 400)
    result = detect_peak_plateau(t, 5.0 * (1.0 - np.exp(-t)))
    assert result["ratio"] == pytest.approx(1.0, abs=0.01)
    assert result["C_plateau"] == pytest.approx(5.0, rel=0.01)


def test_plateau_detects_peak():
    t = np.geomspace(0.01, 500.0, 800)
    base = 4.0 * (1.0 - np.exp(-t))
    bump = 0.6 * np.exp(-((np.log(t) - np.log(3.0)) ** 2))
    result = detect_peak_plateau(t, base + bump)
    assert result["ratio"] > 1.1
    # bump centered at t=3 rides a rising baseline, shifting the maximum right
    assert 2.0 < result["t_peak"] < 8.0
    assert result["C_peak"] > result["C_plateau"]


def test_plateau_rescaling_invariance():
    t = np.geomspace(0.01, 500.0, 800)
    c = 4.0 * (1.0 - np.exp(-t)) + 0.6 * np.exp(-np.log(t / 3.0) ** 2)
    r1 = detect_peak_plateau(t, c)
    r2 = detect_peak_plateau(100.0 * t, c)
    assert r2["ratio"] == pytest.approx(r1["ratio"], rel=1e-12)
    assert r2["t_peak"] == pytest.approx(100.0 * r1["t_peak"], rel=1e-12)


def test_plateau_rejects_short_series():
    t = np.geomspace(0.01, 2.0, 100)
    with pytest.raises(WindowError):
        detect_peak_plateau(t, 5.0 * (1.0 - np.exp(-t)))
    with pytest.raises(WindowError):
        detect_peak_plateau(np.linspace(0, 1, 9), np.linspace(0, 1, 9))


def _noisy_run(seed, times):
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [seed, 0], dtype=np.uint64)))
    noise = gen.normal(0.0, 0.5, size=times.size)
    c = np.maximum(3.0 + noise, 0.0)
    return SpreadComplexitySeries(times=times, C=c,
                                  F=np.full(times.size, 0.5))


def test_ensemble_single_member_is_identity():
    times = np.linspace(0.0, 1.0, 20)
    member = _noisy_run(7, times)
    ens = ensemble_average([member])
    np.testing.assert_array_equal(ens.times, times)
    np.testing.assert_array_equal(ens.mean_C, member.C)
    np.testing.assert_array_equal(ens.mean_F, member.F)
    np.testing.assert_array_equal(ens.stderr_C, 0.0)
    assert ens.mean_C.shape == (times.size,)


def test_ensemble_stderr_scaling():
    times = np.linspace(0.0, 1.0, 10)
    ens = ensemble_average([_noisy_run(s, times) for s in range(25)])
    expected = 0.5 / 5.0
    assert np.mean(ens.stderr_C) == pytest.approx(expected, rel=0.2)


def test_ensemble_rejects_empty_input_and_grid_mismatch():
    times = np.linspace(0.0, 1.0, 10)
    with pytest.raises(FitError):
        ensemble_average([])
    with pytest.raises(FitError, match="mismatching time grids"):
        ensemble_average([_noisy_run(1, times),
                          _noisy_run(2, np.linspace(0.0, 2.0, 10))])
