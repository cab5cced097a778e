"""Conversion between spectral moments and Lanczos coefficients.

The local density of states of an initial state defines power moments
``mu_n = <psi0|H^n|psi0>``.  The tridiagonal (Jacobi) representation of the
same data is the pair of Lanczos coefficient sequences ``a_n`` (diagonal)
and ``b_n`` (off-diagonal, b_0 = 0).  This module converts in both
directions without ever touching a matrix:

* ``moments_to_lanczos`` runs the double auxiliary-array recursion

      M_k^(0) = (-1)^k mu_k,          L_k^(0) = (-1)^(k+1) mu_(k+1),
      M_k^(n) = L_k^(n-1) - L_(n-1)^(n-1) M_k^(n-1) / M_(n-1)^(n-1),
      L_k^(n) = M_(k+1)^(n) / M_n^(n) - M_k^(n-1) / M_(n-1)^(n-1),

  from which ``b_n = sqrt(M_n^(n))`` and ``a_n = -L_n^(n)``.  The recursion
  is numerically violent (Hankel conditioning), so it never runs in double
  precision: rational inputs are processed with exact ``fractions.Fraction``
  arithmetic, everything else with ``mpmath`` at a working precision that is
  escalated until two precision levels agree.  Rationals tagged with a
  ``precision_bits`` floor take the faster ``mpmath`` route too.  mpmath is
  imported where that route first needs it, so the exact route, and every
  caller that only builds ``LanczosCoefficients``, never loads it.

* ``lanczos_to_moments`` recovers ``mu_n = (T^n)_00`` exactly.  Closed walks
  on a tridiagonal matrix cross every off-diagonal bond an even number of
  times, so the result is a polynomial in ``a_n`` and ``b_n^2`` and can be
  evaluated in exact rational arithmetic even though ``b_n`` itself is
  irrational.

Moment positivity (all Hankel determinants of ``[mu_(i+j)]`` positive) is
what guarantees real coefficients.  A sequence that fails the check is
*formal*: ``formal=True`` continues the recursion with sign-carrying
``b_n = sign(b_n^2) * sqrt(|b_n^2|)`` and marks the output non-physical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (
    DomainError,
    FloatRangeError,
    InsufficientMomentsError,
    PositivityError,
    PrecisionError,
)

# Below this fraction of the moments' own scale, with no absolute floor,
# b_n^2 is an exact Krylov exhaustion, not a coefficient (floating path).
EXHAUSTION_RTOL = 1e-24

# Hard ceiling for the automatic precision escalation.
MAX_PRECISION_BITS = 1 << 14

# Highest starting precision: a result needs two agreeing levels, and the
# second, twice the first, must stay within the ceiling.
MAX_START_BITS = MAX_PRECISION_BITS // 2

# Smallest positive normal float: a b_n^2 below it loses digits when it
# is rounded to a float before its root is taken.
FLOAT_TINY = float(np.finfo(float).tiny)

# Two floating results are considered converged when the final b agrees
# to this relative tolerance between consecutive precision levels.
ESCALATION_RTOL = 1e-9


@dataclass
class MomentSequence:
    """Power moments ``mu_0 .. mu_order`` of a local density of states.

    ``values[n]`` is ``mu_n``, a ``Fraction``/``int`` or an
    ``mpmath.mpf``/``float``.  ``precision_bits`` selects how
    ``moments_to_lanczos`` converts them: ``None`` means the exact
    ``Fraction`` recursion (when every value is rational), an integer means
    the ``mpmath`` recursion escalated from that many bits upward.
    ``mu_0`` must equal 1 (normalized state).
    """

    values: tuple
    precision_bits: int | None = None

    def __post_init__(self):
        self.values = tuple(self.values)
        if len(self.values) == 0:
            raise DomainError("moment sequence must contain at least mu_0")
        mu0 = self.values[0]
        if isinstance(mu0, Rational):
            ok = mu0 == 1
        else:
            ok = abs(float(mu0) - 1.0) <= 1e-12
        if not ok:
            raise DomainError(f"mu_0 must be 1 (normalized state), got {mu0}")


@dataclass
class LanczosCoefficients:
    """Tridiagonal coefficients ``a_0..a_(K-1)``, ``b_1..b_(K-1)``.

    ``physical=True`` requires every ``b_n > 0``.  Formal sequences
    (``physical=False``) may carry negative entries; such an entry encodes
    ``b_n^2 = sign(b_n) * b_n^2`` from a non-positive Hankel form and does
    not correspond to any Hermitian matrix.
    """

    a: np.ndarray
    b: np.ndarray
    physical: bool = True
    violation_depth: int | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 1 or self.b.ndim != 1:
            raise DomainError("coefficient arrays must be one-dimensional")
        if len(self.a) == 0:
            raise DomainError("need at least a_0")
        if len(self.b) != len(self.a) - 1:
            raise DomainError(
                f"expected {len(self.a) - 1} off-diagonal entries, "
                f"got {len(self.b)}")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise DomainError("coefficients must be finite")
        if self.physical and np.any(self.b <= 0):
            raise DomainError("physical coefficients require all b_n > 0")

    @property
    def K(self) -> int:
        """Krylov dimension represented by these coefficients."""
        return len(self.a)


def _recursion(mu, K: int, formal: bool, exact: bool):
    """One pass of the auxiliary L/M recursion in the arithmetic of ``mu``.

    Returns ``(a, b2, violation_depth)`` where lists hold exact/mpf values
    and terminate early on Krylov exhaustion.
    """
    two_k = 2 * K
    M_prev = [((-1) ** k) * mu[k] for k in range(two_k + 1)]
    L_prev = [((-1) ** (k + 1)) * mu[k + 1] for k in range(two_k)]
    a = [-L_prev[0]]
    b2 = []
    violation = None
    scale = max(abs(mu[2] - mu[1] * mu[1]), abs(mu[2]), mu[1] * mu[1])

    for n in range(1, K):
        lo, hi = n, two_k - n
        M_cur = [None] * (hi + 1)
        pivot_L = L_prev[n - 1]
        pivot_M = M_prev[n - 1]
        for k in range(lo, hi + 1):
            M_cur[k] = L_prev[k] - pivot_L * M_prev[k] / pivot_M
        b2_n = M_cur[n]

        if exact:
            exhausted = b2_n == 0
            negative = b2_n < 0
        else:
            thr = EXHAUSTION_RTOL * scale
            exhausted = abs(b2_n) <= thr
            negative = b2_n < -thr
        if negative and not formal:
            raise PositivityError(
                f"Hankel positivity violated at depth {n}: b_{n}^2 = "
                f"{float(b2_n)}", depth=n)
        if negative:
            violation = n if violation is None else violation
        elif exhausted:
            break

        b2.append(b2_n)
        scale = max(scale, abs(b2_n))

        L_cur = [None] * hi
        for k in range(lo, hi):
            L_cur[k] = M_cur[k + 1] / b2_n - M_prev[k] / pivot_M
        a.append(-L_cur[n])
        M_prev, L_prev = M_cur, L_cur

    return a, b2, violation


def _float(value) -> float:
    """``value`` rounded to a float, ``inf`` beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _signed_root(value, n: int) -> float:
    """b_n as a float from ``value`` = b_n^2: ``sign(value) sqrt|value|``.

    Where ``value`` rounds to a normal float, this is the root of that
    float.  Elsewhere the root is taken first, at 113 bits (an ``mpf`` has
    no exponent limit), so a b_n whose square over- or underflows a float
    keeps its digits.  A b_n that is itself no normal float raises
    ``FloatRangeError``.
    """
    fv = _float(value)
    if value == 0 or FLOAT_TINY <= abs(fv) < np.inf:
        return np.sign(fv) * np.sqrt(abs(fv))
    import mpmath

    with mpmath.workprec(113):
        root = mpmath.sqrt(abs(_mpf(value)))
        if not FLOAT_TINY <= _float(root) < np.inf:
            raise FloatRangeError(f"|b_{n}| = {mpmath.nstr(root, 5)} is "
                                  "outside the normal float range")
    return float(root) if value > 0 else -float(root)


def _finalize(a, b2, violation) -> LanczosCoefficients:
    a_arr = np.array([_float(x) for x in a], dtype=float)
    if not np.all(np.isfinite(a_arr)):
        raise FloatRangeError("an a_n exceeds the float range")
    b_arr = np.array([_signed_root(v, n) for n, v in enumerate(b2, 1)],
                     dtype=float)
    return LanczosCoefficients(a_arr, b_arr, physical=violation is None,
                               violation_depth=violation)


def _mpf(value):
    """``value`` at the working precision; a rational as ``mpf(p)/q``."""
    import mpmath

    if isinstance(value, Rational):
        return mpmath.mpf(value.numerator) / value.denominator
    return value if isinstance(value, mpmath.mpf) else mpmath.mpf(value)


def start_precision(K: int, *floors) -> int:
    """Starting bits of the ``mpmath`` route at depth ``K``:
    ``max(128, 12 K, floors)``, ``None`` floors ignored.  ``DomainError``
    above MAX_START_BITS, before any moment or recursion is computed."""
    prec = max(128, 12 * K, *(floor or 0 for floor in floors))
    if prec > MAX_START_BITS:
        raise DomainError(
            f"working precision floor {prec} bits leaves no second level "
            f"below the ceiling of {MAX_PRECISION_BITS} bits (at most "
            f"{MAX_START_BITS} bits)")
    return prec


def _convert(moments: MomentSequence, K, formal,
             precision_bits=None) -> LanczosCoefficients:
    """Exact recursion for rationals with ``precision_bits=None``, else
    ``mpmath`` from ``start_precision`` bits up."""
    mu = moments.values
    if moments.precision_bits is None and all(isinstance(v, Rational)
                                              for v in mu):
        a, b2, violation = _recursion([Fraction(v) for v in mu], K, formal,
                                      exact=True)
        return _finalize(a, b2, violation)

    # Floating path: escalate the working precision until the deepest
    # coefficient is stable.  The inputs are converted afresh at every
    # level, so the agreement check also covers their rounding.  A
    # positivity failure is only believed once two consecutive precision
    # levels report it at the same depth; otherwise it is retried.
    import mpmath

    prec = start_precision(K, moments.precision_bits, precision_bits)
    prev = None
    while prec <= MAX_PRECISION_BITS:
        try:
            with mpmath.workprec(prec):
                a, b2, violation = _recursion([_mpf(v) for v in mu], K,
                                              formal, exact=False)
            cur = ("ok", _finalize(a, b2, violation))
        except PositivityError as exc:
            cur = ("violation", exc)
        if prev is not None:
            if cur[0] == "ok" and prev[0] == "ok":
                new, old = cur[1], prev[1]
                if new.K == old.K:
                    if new.K == 1:
                        scale = max(abs(new.a[0]), 1.0)
                        agreed = abs(new.a[0] - old.a[0]) <= \
                            ESCALATION_RTOL * scale
                    else:
                        agreed = abs(new.b[-1] - old.b[-1]) <= \
                            ESCALATION_RTOL * max(abs(new.b[-1]), 1e-300)
                    if agreed:
                        return new
            elif (cur[0] == "violation" and prev[0] == "violation"
                  and cur[1].depth == prev[1].depth):
                raise cur[1]
        prev = cur
        prec *= 2
    raise PrecisionError(
        f"no convergence up to {MAX_PRECISION_BITS} bits for K={K}; "
        "the moment sequence is too ill-conditioned at this depth")


def moments_to_lanczos(moments, K: int, precision_bits: int | None = None,
                       formal: bool = False) -> LanczosCoefficients:
    """Convert power moments to Lanczos coefficients at depth ``K``.

    Parameters
    ----------
    moments : MomentSequence or sequence of numbers
        ``mu_0 .. mu_order`` with ``order >= 2K``.
    K : int
        Requested Krylov depth: returns ``a_0..a_(K-1)`` and ``b_1..b_(K-1)``.
        Terminates early (smaller K) when the Krylov space exhausts.
    precision_bits : int, optional
        Floor for the working precision of the ``mpmath`` recursion.  A raw
        sequence of rationals (int / Fraction) always takes the exact
        ``Fraction`` recursion; a ``MomentSequence`` picks its route by its
        own ``precision_bits`` (see there).
    formal : bool
        Continue through Hankel positivity violations with sign-carrying
        coefficients instead of raising ``PositivityError``.

    Raises
    ------
    InsufficientMomentsError
        If fewer than ``2K + 1`` moment values are available.
    PositivityError
        If some ``b_n^2 < 0`` and ``formal`` is not set.
    DomainError
        If the floating route's starting precision (``12 K`` bits or a
        precision floor) exceeds ``MAX_START_BITS``, so that no second
        level could confirm the first.
    PrecisionError
        If precision escalation hits its ceiling without convergence.
    """
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise DomainError(f"K must be a positive integer, got {K}")
    if not isinstance(moments, MomentSequence):
        moments = MomentSequence(moments)
    order = len(moments.values) - 1
    if order < 2 * K:
        raise InsufficientMomentsError(
            f"depth K={K} needs moments through order {2 * K}, "
            f"got order {order}")
    return _convert(moments, K, formal, precision_bits)


def lanczos_to_moments(lc: LanczosCoefficients, order: int) -> MomentSequence:
    """Recover ``mu_n = (T^n)_00`` from tridiagonal coefficients.

    Exact: the walk sum only involves ``a_n`` and ``b_n^2``, so it is
    evaluated with ``Fraction`` arithmetic on the binary values stored in
    ``lc`` (floats are dyadic rationals).  For formal coefficient sets the
    sign convention of ``LanczosCoefficients`` is honoured, which makes
    this the exact inverse of ``moments_to_lanczos(..., formal=True)``.

    An oracle with its own algorithm: no command calls it, and the
    round-trip tests of ``test_moment_lanczos.py`` hold
    ``moments_to_lanczos`` to it.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"order must be a non-negative integer, got {order}")
    K = lc.K
    a = [Fraction(float(x)) for x in lc.a]
    b2 = [Fraction(float(x)) * abs(Fraction(float(x))) for x in lc.b]
    # v_j tracks the rescaled amplitude (prod_{i<=j} b_i) <K_j|T^n|K_0>, in
    # which representation applying T uses only a_j and b_j^2.
    v = [Fraction(0)] * K
    v[0] = Fraction(1)
    mu = [Fraction(1)]
    for _ in range(order):
        w = [Fraction(0)] * K
        for j in range(K):
            val = a[j] * v[j]
            if j > 0:
                val += b2[j - 1] * v[j - 1]
            if j < K - 1:
                val += v[j + 1]
            w[j] = val
        v = w
        mu.append(v[0])
    return MomentSequence(tuple(mu), precision_bits=None)
