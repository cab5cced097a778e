"""Krylov-space time evolution and spread-complexity observables.

``eigendecompose`` is the one place that diagonalizes the tridiagonal
coefficient matrix T (LAPACK ``dstevd``, bound in ``_lapack``).  Every
evolution function takes its ``Spectrum``, never the coefficients, so a
caller that needs both the series and the averages, like each ensemble
member of the command line, diagonalizes T once.  Amplitudes follow
exactly:

    phi_n(t) = sum_k U_nk exp(-i lambda_k t) U_0k

evaluated as two real matrix products, one on cos(lambda_k t) U_0k for the
real part and one on sin(lambda_k t) U_0k for the imaginary part.  No
time-stepping error enters; each grid point is independent, so the
evolution is unitary up to eigensolver roundoff at every t.

``spread_series`` is the one reducer of amplitudes.  It checks the grid
once, against the spectrum too (a grid whose largest phase max|lambda| t
overflows is a ``DomainError``, before NaN amplitudes are formed), and
evolves TIME_SLAB_ROWS grid rows at a time, so a member holds one
slab of amplitudes, not len(times) x K, whatever the grid's length; the
slab's weights |phi_n|^2, formed once, give the unitarity check, C and F.
The slab is a row count, not a byte size.  Each GEMM call repacks the
K x K eigenvectors, so slabs of a few dozen rows cost time.  And OpenBLAS
splits a GEMM's rows over its threads, with a row's last bits following
the split: other row counts moved C at K=3432 in its last bits, while
200-row slabs reproduced the whole-grid series bit for bit at K=1000 and
K=3432.  A byte rule would change the row count with K, and the bits with
it.

Infinite-time averages use the eigenbasis overlaps.  Eigenvalues closer
than 1e-12 max|lambda| are merged into degenerate blocks first, with no
absolute floor, so T and c T give the same averages; the plain
sum-over-levels formula silently assumes a non-degenerate spectrum and
overestimates dephasing inside a block.  Single levels contribute
sum_k (U_nk U_0k)^2, summed over slabs of contiguous eigenvector columns so
that no K x K temporary is formed; each merged block B then adds
(U[:, B] @ U_0B)^2, one matrix-vector product per block.
"""
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dstevd
from .errors import DomainError, FloatRangeError, NumericalError
from .moment_lanczos import LanczosCoefficients

UNITARITY_ATOL = 1e-10
DEGENERACY_RTOL = 1e-12
# Krylov columns per slab of the long-time average's single-level sum
AVERAGE_COLUMN_SLAB = 64
# saturation window: plateau statements need the grid to extend well past
# the inverse level spacing, so the automatic grid ends at 20 Heisenberg
# times
HEISENBERG_MULTIPLE = 20.0
# grid rows evolved at once by spread_series (see the module docstring)
TIME_SLAB_ROWS = 200


@dataclass
class SpreadComplexitySeries:
    """Spread complexity C(t) and survival probability F(t) on a grid."""

    times: np.ndarray
    C: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        if not (self.times.shape == self.C.shape == self.F.shape):
            raise DomainError("times, C, F must share one shape")
        if np.any(self.C < -1e-10) or np.any(self.F < -1e-10) \
                or np.any(self.F > 1.0 + 1e-10):
            raise DomainError("C must be >= 0 and F within [0, 1]")
        # clamp eigensolver roundoff once validated
        self.C = np.maximum(self.C, 0.0)
        self.F = np.clip(self.F, 0.0, 1.0)


@dataclass(frozen=True)
class LongTimeAverages:
    """Infinite-time means of C(t) and F(t) for a discrete spectrum."""

    c_bar: float
    f_bar: float


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of T and its eigenvectors ``vectors[:, k]``."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def K(self) -> int:
        return self.values.size


def eigendecompose(lc: LanczosCoefficients) -> Spectrum:
    """Diagonalize the tridiagonal matrix of a physical coefficient set."""
    if not lc.physical:
        raise DomainError(
            "formal coefficient sets do not define a Hermitian evolution")
    spectrum = Spectrum(*dstevd(lc.a, lc.b))
    if not np.all(np.isfinite(spectrum.values)):
        raise FloatRangeError("an eigenvalue of T exceeds the float range")
    return spectrum


def _median(x) -> float:
    """``np.median`` of a non-empty 1-D array (the mean of the two middle
    values at even size), without the import of ``numpy.ma`` that
    ``np.median`` makes on its first call."""
    s = np.sort(x)
    m = s.size // 2
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2)


def time_grid(values, sigma: float, points, tmax=None, log=True) \
        -> np.ndarray:
    """Ascending grid of ``points`` times for a spectrum of first
    coefficient ``sigma`` and ascending eigenvalues ``values``.

    A log grid runs from 1e-2/sigma, a linear one from 0.  Without ``tmax``
    it ends at HEISENBERG_MULTIPLE Heisenberg times 2 pi / (median level
    gap), over the gaps above DEGENERACY_RTOL times max|values|; with no
    such gap, at 1e3/sigma.
    """
    if tmax is None:
        gaps = np.diff(values)
        gaps = gaps[gaps > DEGENERACY_RTOL * abs(values).max(initial=0.0)]
        tmax = (HEISENBERG_MULTIPLE * 2.0 * math.pi / _median(gaps)
                if gaps.size else 1e3 / sigma)
        if not math.isfinite(tmax):
            raise FloatRangeError("the spectrum sets a grid end beyond the "
                                  "float range")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise DomainError(f"--tpoints must be an integer >= 2, got {points}")
    if not (math.isfinite(tmax) and tmax > 0):
        raise DomainError(f"--tmax must be positive, got {tmax}")
    if log:
        tmin = 1e-2 / sigma
        if tmax <= tmin:
            raise DomainError(
                f"--tmax {tmax} is below the smallest grid time {tmin:.3g}")
        return np.geomspace(tmin, tmax, points)
    return np.linspace(0.0, tmax, points)


def evolve_amplitudes(spectrum: Spectrum, times) -> np.ndarray:
    """Amplitudes ``phi[i, n]`` of Krylov vector n at ``times[i]``, a
    (len(times), K) complex array; ``spread_series`` checks the grid."""
    vecs = spectrum.vectors
    # U_0k is a strided row of the F-ordered vectors; read it once
    u0 = vecs[0].copy()
    # exp(-i lambda t) = cos(lambda t) - i sin(lambda t), one real GEMM each
    angles = np.outer(times, spectrum.values)
    phi = np.empty(angles.shape, dtype=complex)
    phi.real = (np.cos(angles) * u0) @ vecs.T
    np.sin(angles, out=angles)
    angles *= -u0
    phi.imag = angles @ vecs.T
    return phi


def spread_series(spectrum: Spectrum, times) -> SpreadComplexitySeries:
    """C(t) = sum_n n |phi_n|^2 and F(t) = |phi_0|^2 on an ascending, finite
    grid whose phases lambda t stay finite, from checked slabs of
    TIME_SLAB_ROWS rows of amplitudes."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise DomainError("empty time grid")
    if not np.all(np.isfinite(times)):
        raise DomainError("time grid must be finite")
    if np.any(np.diff(times) < 0):
        raise DomainError("time grid must be ascending")
    t_max = float(np.abs(times).max())
    lam_max = float(np.abs(spectrum.values).max())
    # Python floats: an overflowing product is inf, without numpy's warning
    if not math.isfinite(t_max * lam_max):
        raise DomainError(f"the phases lambda t overflow: max|t| {t_max:.6g}"
                          f" times max|lambda| {lam_max:.6g} is beyond the "
                          "float range; lower --tmax")
    spread, survival = np.empty(times.size), np.empty(times.size)
    for lo in range(0, times.size, TIME_SLAB_ROWS):
        rows = slice(lo, lo + TIME_SLAB_ROWS)
        phi = evolve_amplitudes(spectrum, times[rows])
        weights = np.abs(phi)
        weights **= 2
        # NaN-safe, a backstop to the phase check: NaN weights fail it
        worst = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
        if not worst <= UNITARITY_ATOL:
            raise NumericalError(
                f"amplitude normalization off by {worst:.3e}")
        off_e0 = np.abs(phi[times[rows] == 0.0] - np.eye(1, spectrum.K))
        if not off_e0.max(initial=0.0) <= UNITARITY_ATOL:
            raise NumericalError("phi(0) must be the first unit vector")
        spread[rows] = weights @ np.arange(spectrum.K)
        survival[rows] = weights[:, 0]
        # free the slab before the next one is evolved: one slab at a time
        del phi, weights
    # phi(0) is the first unit vector up to rounding; pin the exact values
    at_zero = times == 0.0
    spread[at_zero] = 0.0
    survival[at_zero] = 1.0
    return SpreadComplexitySeries(times=times, C=spread, F=survival)


def _degenerate_block_starts(lam: np.ndarray) -> np.ndarray:
    gaps = np.diff(lam)
    boundaries = np.nonzero(gaps > DEGENERACY_RTOL * np.abs(lam).max())[0]
    return np.concatenate([[0], boundaries + 1])


def long_time_average(spectrum: Spectrum) -> LongTimeAverages:
    """Infinite-time averages of C and F with degenerate levels merged."""
    vecs = spectrum.vectors
    bounds = np.append(_degenerate_block_starts(spectrum.values), spectrum.K)
    merged = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
              if hi - lo > 1]
    single = vecs[0].copy()
    for lo, hi in merged:
        single[lo:hi] = 0.0
    # weights[n] = sum over blocks of (sum_{k in block} U_nk U_0k)^2
    weights = np.zeros(spectrum.K)
    for lo in range(0, spectrum.K, AVERAGE_COLUMN_SLAB):
        cols = slice(lo, lo + AVERAGE_COLUMN_SLAB)
        overlap = vecs[:, cols] * single[cols]
        overlap *= overlap
        weights += overlap.sum(axis=1)
    for lo, hi in merged:
        weights += (vecs[:, lo:hi] @ vecs[0, lo:hi]) ** 2
    c_bar = float(np.arange(spectrum.K) @ weights)
    return LongTimeAverages(c_bar=c_bar, f_bar=float(weights[0]))
