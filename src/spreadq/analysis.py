"""Fits, ensemble statistics, and feature detection for coefficient profiles
and spread-complexity series.

Fit windows are always recorded in the result: none of the published numbers
state theirs, so auditability has to come from this side.  Defaults follow
the conventions declared here:

- power fits over n in [2, K/2] (n=1 distorts the intercept, the tail feels
  truncation)
- GOE profile fits drop the tail N - n < 20 where the (N-n)^(1/2) form breaks
- decay-exponent fits reject windows whose log-log curvature exceeds
  CURVATURE_LIMIT: a power law has none, a Gaussian is all curvature
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NotPowerLawError, WindowError

CURVATURE_LIMIT = 0.5
# envelope segments per decade of t in fit_decay_exponent
SEGMENTS_PER_DECADE = 10
GOE_TAIL_EXCLUSION = 20
PLATEAU_DECADE = 10.0
SATURATION_MARGIN = 10.0


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit outcome with its window made explicit."""

    model_tag: str
    params: dict
    residual_rms: float
    window: tuple

    def __post_init__(self):
        if not math.isfinite(self.residual_rms):
            raise FitError("residual RMS must be finite")
        if len(self.window) != 2 or self.window[1] < self.window[0]:
            raise FitError(f"empty fit window {self.window}")

    def to_dict(self) -> dict:
        return {"model": self.model_tag, "params": dict(self.params),
                "residual_rms": self.residual_rms,
                "window": list(self.window)}


@dataclass(frozen=True)
class RegimeStats:
    """Coefficient statistics of one run; each histogram is (counts, edges)."""

    var_a: float
    var_b: float
    hist_a: tuple
    hist_b: tuple
    realizations: int


@dataclass
class EnsembleSeries:
    """Pointwise ensemble average of spread-complexity series."""

    times: np.ndarray
    mean_C: np.ndarray
    mean_F: np.ndarray
    stderr_C: np.ndarray
    stderr_F: np.ndarray


def _window_slice(n_values, window, minimum_points):
    lo, hi = window
    mask = (n_values >= lo) & (n_values <= hi)
    if np.count_nonzero(mask) < minimum_points:
        raise WindowError(
            f"window {window} keeps {np.count_nonzero(mask)} points, "
            f"need {minimum_points}")
    return mask


def _loglog_fit(x, y):
    coeffs, residuals, *_ = np.polyfit(np.log(x), np.log(y), 1, full=True)
    slope, intercept = coeffs
    rms = math.sqrt(residuals[0] / x.size) if residuals.size else 0.0
    return float(slope), float(intercept), rms


def _coefficient_values(b):
    values = np.asarray(b, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise FitError("need a one-dimensional, non-empty coefficient list")
    return values


def fit_bn_power(b, window: tuple | None = None) -> FitResult:
    """Fit b_n = n1 * n^n2 (log-log least squares)."""
    values = _coefficient_values(b)
    n_values = np.arange(1, values.size + 1)
    if window is None:
        window = (2, max(2, values.size // 2))
    mask = _window_slice(n_values, window, 3)
    if np.any(values[mask] <= 0):
        raise FitError("power fit requires b_n > 0 inside the window")
    slope, intercept, rms = _loglog_fit(n_values[mask], values[mask])
    return FitResult(model_tag="n1*n^n2",
                     params={"n1": math.exp(intercept), "n2": slope},
                     residual_rms=rms, window=tuple(window))


def fit_bn_linear(b, window: tuple | None = None,
                  through_origin: bool = False) -> FitResult:
    """Fit b_n = slope * n (+ intercept unless through_origin)."""
    values = _coefficient_values(b)
    n_values = np.arange(1, values.size + 1)
    if window is None:
        window = (2, max(2, values.size // 2))
    mask = _window_slice(n_values, window, 2 if through_origin else 3)
    x = n_values[mask].astype(float)
    y = values[mask]
    if through_origin:
        slope = float(x @ y / (x @ x))
        intercept = 0.0
    else:
        slope_i, intercept = np.polyfit(x, y, 1)
        slope = float(slope_i)
        intercept = float(intercept)
    rms = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    return FitResult(model_tag="linear",
                     params={"slope": slope, "intercept": intercept},
                     residual_rms=rms, window=tuple(window))


def fit_goe_profile(b, dim: int, window: tuple | None = None) -> FitResult:
    """Fit b_n = n1 * (dim - n)^n2 over n, excluding the broken tail."""
    values = _coefficient_values(b)
    n_values = np.arange(1, values.size + 1)
    if window is None:
        window = (1, max(2, dim - GOE_TAIL_EXCLUSION))
    mask = _window_slice(n_values, window, 3)
    remaining = dim - n_values[mask]
    if np.any(remaining <= 0) or np.any(values[mask] <= 0):
        raise FitError("profile fit needs n < dim and b_n > 0 in the window")
    slope, intercept, rms = _loglog_fit(remaining.astype(float), values[mask])
    return FitResult(model_tag="n1*(N-n)^n2",
                     params={"n1": math.exp(intercept), "n2": slope},
                     residual_rms=rms, window=tuple(window))


def fit_decay_exponent(series, window: tuple,
                       envelope: bool = False) -> FitResult:
    """Fit F(t) = A * t^-gamma on log-log axes inside [t_lo, t_hi].

    ``series`` is the pair ``(t, F)``.  ``envelope=True`` first reduces the
    window to per-segment maxima on a logarithmic segmentation, which strips
    oscillations (Bessel zeros) off an oscillatory decay.  A quadratic
    log-log term larger than CURVATURE_LIMIT rejects the fit: the data is
    then not a power law.
    """
    times, values = (np.asarray(v, dtype=float) for v in series)
    t_lo, t_hi = window
    if not (t_lo > 0 and t_hi > t_lo):
        raise FitError(f"decay window must satisfy 0 < t_lo < t_hi, "
                       f"got {window}")
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 4:
        raise FitError(f"window {window} keeps too few points")
    t_win = times[mask]
    f_win = values[mask]
    if np.any(f_win <= 0):
        raise FitError("non-positive F inside the decay window")

    if envelope:
        decades = math.log10(t_hi / t_lo)
        segments = max(3, int(round(decades * SEGMENTS_PER_DECADE)))
        edges = np.geomspace(t_lo, t_hi, segments + 1)
        t_pts, f_pts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            seg = (t_win >= lo) & (t_win <= hi)
            if not np.any(seg):
                continue
            k = np.argmax(f_win[seg])
            t_pts.append(t_win[seg][k])
            f_pts.append(f_win[seg][k])
        t_fit = np.array(t_pts)
        f_fit = np.array(f_pts)
        if t_fit.size < 4:
            raise FitError("envelope reduction left too few points")
    else:
        t_fit, f_fit = t_win, f_win

    log_t = np.log(t_fit)
    log_f = np.log(f_fit)
    quad = np.polyfit(log_t, log_f, 2)
    if abs(quad[0]) > CURVATURE_LIMIT:
        raise NotPowerLawError(
            f"log-log curvature {quad[0]:.3g} exceeds "
            f"{CURVATURE_LIMIT}: not a power law on {window}")
    slope, intercept = np.polyfit(log_t, log_f, 1)
    rms = float(np.sqrt(np.mean((log_f - slope * log_t - intercept) ** 2)))
    return FitResult(model_tag="power-decay",
                     params={"gamma": -float(slope),
                             "amplitude": math.exp(float(intercept))},
                     residual_rms=rms, window=(float(t_lo), float(t_hi)))


def _fd_bins(data: np.ndarray) -> int:
    """The bin count of numpy's Freedman-Diaconis rule (``bins="fd"``),
    with the quartiles by ``np.percentile``'s linear rule, which imports
    ``numpy.ma`` on its first call."""
    s = np.sort(data)
    if s.size == 0:
        return 1

    def quartile(q: float) -> float:
        at = (s.size - 1) * q
        i = int(at)
        lo, hi, t = s[i], s[min(i + 1, s.size - 1)], at - i
        # numpy's lerp rounds from the nearer end
        return lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1 - t)

    width = 2.0 * (quartile(0.75) - quartile(0.25)) * s.size ** (-1.0 / 3.0)
    return int(np.ceil((s[-1] - s[0]) / width)) if width else 1


def coefficient_stats(lc_list) -> RegimeStats:
    """Variance and histograms of the pooled {a_n} and {b_n} of a list of
    LanczosCoefficients realizations.

    The variance is computed per realization over its full profile and then
    averaged across realizations.
    """
    if not lc_list:
        raise FitError("need at least one realization")
    pooled_a = np.concatenate([lc.a for lc in lc_list])
    pooled_b = np.concatenate([lc.b for lc in lc_list])
    return RegimeStats(
        var_a=float(np.mean([np.var(lc.a) for lc in lc_list])),
        var_b=float(np.mean([np.var(lc.b) for lc in lc_list])),
        hist_a=np.histogram(pooled_a, bins=_fd_bins(pooled_a)),
        hist_b=np.histogram(pooled_b, bins=_fd_bins(pooled_b)),
        realizations=len(lc_list))


def detect_peak_plateau(times, spread) -> dict:
    """Locate the peak and the late-time plateau of C(t) = ``spread`` on
    the ascending grid ``times``.

    The plateau is the mean of C over the final decade of the grid; the
    peak is the maximum before that window.  The series must extend at
    least SATURATION_MARGIN times past the estimated saturation onset
    (first crossing of 90% of the plateau level; the exact level is crossed
    arbitrarily late for smooth monotone saturation).
    """
    times, spread = (np.asarray(v, dtype=float) for v in (times, spread))
    if times.size < 8 or times[-1] <= 0:
        raise WindowError("series too short for plateau detection")
    t_max = times[-1]
    window_mask = times >= t_max / PLATEAU_DECADE
    if np.count_nonzero(window_mask) < 4:
        raise WindowError("final decade of the grid holds too few points")
    c_plateau = float(np.mean(spread[window_mask]))
    if c_plateau <= 0.0:
        raise WindowError("C stays 0: the state never spreads")
    crossing = np.nonzero(spread >= 0.9 * c_plateau)[0]
    if crossing.size == 0:
        raise WindowError("series never reaches its plateau level")
    t_onset = times[crossing[0]]
    if t_onset <= 0 or t_max < SATURATION_MARGIN * t_onset:
        raise WindowError(
            f"grid ends at {t_max:.3g}, need {SATURATION_MARGIN} x "
            f"saturation onset {t_onset:.3g}")
    before = ~window_mask
    c_peak = float(np.max(spread[before]))
    t_peak = float(times[before][np.argmax(spread[before])])
    if c_peak < c_plateau:
        c_peak = c_plateau
        t_peak = float(times[window_mask][0])
    return {"C_peak": c_peak, "t_peak": t_peak, "C_plateau": c_plateau,
            "ratio": c_peak / c_plateau}


def ensemble_average(members) -> EnsembleSeries:
    """Pointwise mean and standard error of series on one time grid.

    ``members`` are reduced in the order given, so the same series in the
    same order give the same bytes.
    """
    if len(members) == 0:
        raise FitError("need at least one realization")
    times = np.asarray(members[0].times, dtype=float)
    if any(not np.array_equal(np.asarray(series.times), times)
           for series in members):
        raise FitError("ensemble members have mismatching time grids")
    members_c = np.stack([series.C for series in members])
    members_f = np.stack([series.F for series in members])
    count = len(members)
    mean_c = np.add.reduce(members_c, axis=0) / count
    mean_f = np.add.reduce(members_f, axis=0) / count
    if count > 1:
        stderr_c = np.std(members_c, axis=0, ddof=1) / math.sqrt(count)
        stderr_f = np.std(members_f, axis=0, ddof=1) / math.sqrt(count)
    else:
        stderr_c = np.zeros(times.size)
        stderr_f = np.zeros(times.size)
    return EnsembleSeries(times=times, mean_C=mean_c, mean_F=mean_f,
                          stderr_C=stderr_c, stderr_F=stderr_f)
