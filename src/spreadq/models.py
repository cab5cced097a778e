"""Closed-form autocorrelation and survival-probability models.

Four *amplitude* models give the return amplitude ``S(t)`` of a quenched
state directly (all normalized, ``S(0) = 1``):

* ``GaussianAutocorr(sigma0)``:        ``S(t) = exp(-sigma0^2 t^2 / 2)``,
  a Gaussian local density of states of width ``sigma0``.
* ``TruncatedQuadraticAutocorr(sigma0)``: ``S(t) = 1 - sigma0^2 t^2 / 2``,
  the bare short-time expansion kept as-is.  This is a *formal* model: its
  moment sequence (1, 0, sigma0^2, 0, 0, ...) violates Hankel positivity
  at depth 2, so no physical density reproduces it.
* ``InterpolationAutocorr(sigma0, gamma)``:
  ``S(t) = exp[ g2/(4 s2) - (1/2) sqrt(g2^2/(4 s2^2) + g2 t^2) ]`` with
  ``s2 = sigma0^2``, ``g2 = gamma^2``.  Gaussian decay of width ``sigma0``
  at short times crossing over to exponential decay ``|S|^2 ~ exp(-gamma t)``
  at long times.
* ``SemicircleAutocorr(alpha)``:       ``S(t) = J_1(2 alpha t) / (alpha t)``,
  the semicircle density on ``[-2 alpha, 2 alpha]`` (Catalan moments).

``eval_frm_sp(dim, t)`` gives an ensemble-averaged fidelity
``F(t) = |S(t)|^2`` including spectral-correlation effects, for full random
matrices of the orthogonal ensemble:

      <F(t)> = (1-Fbar)/(dim-1) * [4 dim J_1(eta t)^2/(eta t)^2
                                   - B_2(eta t/(4 dim))] + Fbar,

with ``eta = sqrt(2 dim)`` (semicircle radius) and saturation
``Fbar = 3/(dim+2)``.  ``B_2`` is the two-level form factor of the
orthogonal ensemble; it carves the correlation hole below ``Fbar``.

``moments_of_model`` returns the power moments of the implied density as
exact rationals in the model's binary parameters.  For the interpolation
model they are the Taylor coefficients of an exponential composed with the
square-root (Catalan) series, summed in closed form; that sequence carries
a working precision, which sends it through the escalating ``mpmath``
recursion of ``moments_to_lanczos`` instead of the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import DomainError, VariantError
from .moment_lanczos import MomentSequence

# Arguments smaller than this are routed through series branches when a
# formula has a removable singularity at zero.
SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True)
class GaussianAutocorr:
    sigma0: float

    def __post_init__(self):
        _require_positive("sigma0", self.sigma0)


@dataclass(frozen=True)
class TruncatedQuadraticAutocorr:
    sigma0: float

    def __post_init__(self):
        _require_positive("sigma0", self.sigma0)


@dataclass(frozen=True)
class InterpolationAutocorr:
    sigma0: float
    gamma: float

    def __post_init__(self):
        _require_positive("sigma0", self.sigma0)
        _require_positive("gamma", self.gamma)


@dataclass(frozen=True)
class SemicircleAutocorr:
    alpha: float

    def __post_init__(self):
        _require_positive("alpha", self.alpha)


AmplitudeModel = Union[GaussianAutocorr, TruncatedQuadraticAutocorr,
                       InterpolationAutocorr, SemicircleAutocorr]

_VARIANTS = {
    "gaussian": GaussianAutocorr,
    "truncated_quadratic": TruncatedQuadraticAutocorr,
    "interpolation": InterpolationAutocorr,
    "semicircle": SemicircleAutocorr,
}


def _require_positive(name: str, value) -> None:
    if not (np.isscalar(value) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a finite positive number, "
                          f"got {value!r}")


def _time_array(t, nonnegative: bool = False):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("t must be finite")
    if nonnegative and np.any(arr < 0):
        raise DomainError("t must be >= 0")
    return arr, arr.ndim == 0


def _restore(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def _j1_over_x(x: np.ndarray) -> np.ndarray:
    """``J_1(x)/x`` with a series branch across the removable zero.

    Away from it, ``mpmath.besselj`` evaluates J_1 point by point at 53
    bits; on [1e-4, 200] it agrees with a 40-digit evaluation and with
    ``scipy.special.j1`` to 6e-16.  No command evaluates it."""
    import mpmath

    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SERIES_THRESHOLD
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 0.5 - xs**2 / 16.0 + xs**4 / 384.0
    xl = x[~small]
    with mpmath.workprec(53):
        out[~small] = [float(mpmath.besselj(1, v)) / v for v in xl.tolist()]
    return out


def eval_autocorr(model: AmplitudeModel, t):
    """Return amplitude S(t) of an amplitude model (scalar or array t);
    any other object raises ``VariantError``.  An oracle in closed form: no
    command calls it; the Krylov-edge test of ``test_cli.py`` and the
    resummation test of ``test_models.py`` hold ``model`` to it."""
    arr, scalar = _time_array(t)
    if isinstance(model, GaussianAutocorr):
        out = np.exp(-0.5 * model.sigma0**2 * arr**2)
    elif isinstance(model, TruncatedQuadraticAutocorr):
        out = 1.0 - 0.5 * model.sigma0**2 * arr**2
    elif isinstance(model, InterpolationAutocorr):
        s2 = model.sigma0**2
        g2 = model.gamma**2
        out = np.exp(g2 / (4.0 * s2)
                     - 0.5 * np.sqrt(g2 * g2 / (4.0 * s2 * s2) + g2 * arr**2))
    elif isinstance(model, SemicircleAutocorr):
        out = 2.0 * _j1_over_x(2.0 * model.alpha * arr)
    else:
        raise VariantError(f"unknown model type {type(model).__name__}")
    return _restore(out, scalar)


def eval_b2(t):
    """Two-level form factor of the orthogonal ensemble.

    Piecewise for t >= 0 (in units of the Heisenberg time):

        B_2(t) = 1 - 2 t + t ln(1 + 2 t)              for t <= 1,
        B_2(t) = t ln((2 t + 1)/(2 t - 1)) - 1        for t >= 1,

    the branches agreeing at t = 1 (both equal ln 3 - 1).  The second
    branch is evaluated as ``2 t artanh(1/(2 t)) - 1``, which is the same
    function with better conditioning for large t.  Monotonically falls
    from 1 at t = 0 to 0 as t -> infinity.
    """
    arr, scalar = _time_array(t, nonnegative=True)
    out = np.empty_like(arr)
    low = arr < 1.0
    tl = arr[low]
    out[low] = 1.0 - 2.0 * tl + tl * np.log1p(2.0 * tl)
    th = arr[~low]
    out[~low] = 2.0 * th * np.arctanh(1.0 / (2.0 * th)) - 1.0
    return _restore(out, scalar)


def eval_frm_sp(dim: int, t, include_form_factor: bool = True):
    """Ensemble-averaged survival probability for full random matrices.

    ``include_form_factor=False`` drops the B_2 term; the resulting curve
    never dips below its own infinite-time limit (no correlation hole).
    ``F(0) = 1`` exactly and ``F(t) -> 3/(dim+2)`` as ``t -> infinity``.
    An oracle in closed form: no command calls it; ``test_models.py`` pins
    it and ``test_acceptance.py::test_06`` fits its decay exponent.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise DomainError(f"dim must be an integer >= 2, got {dim}")
    arr, scalar = _time_array(t, nonnegative=True)
    x = math.sqrt(2.0 * dim) * arr
    bessel = 4.0 * dim * _j1_over_x(x) ** 2
    if include_form_factor:
        bracket = bessel - eval_b2(x / (4.0 * dim))
    else:
        bracket = bessel - 0.0 * arr
    fbar = 3.0 / (dim + 2)
    out = (1.0 - fbar) * (bracket / (dim - 1)) + fbar
    return _restore(out, scalar)


def _double_factorial_odd(k: int) -> int:
    """(2k - 1)!! via factorials."""
    return math.factorial(2 * k) // (2**k * math.factorial(k))


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _interpolation_moments(model: InterpolationAutocorr,
                           order: int) -> MomentSequence:
    """Even moments of the interpolation model as exact rationals.

    With ``d = gamma^2 / (2 sigma0^2)`` and ``v = -sigma0^4 t^2 / gamma^2``
    the amplitude is ``exp(d c(v))``, where ``c(v) = (1 - sqrt(1 - 4v))/2
    = sum_k Cat_(k-1) v^k`` is the Catalan generating function.  Lagrange
    inversion gives ``[v^n] c(v)^j = (j/n) C(2n-j-1, n-1)``, so

        mu_2n = (2n)!/n! (sigma0^4/gamma^2)^n
                * sum_(j=1..n) C(2n-j-1, n-1) d^j / (j-1)!,

    summed below in integers over the denominator ``q^n`` of ``d^n``.  The
    values equal the binomial-series recursion ``e_n = (1/n) sum_k k p_k
    e_(n-k)`` (Brent & Kung 1978), which ``bench/refcheck.py`` keeps as an
    independent oracle.  The sequence is tagged with the 128-bit floor of
    the escalating ``mpmath`` recursion, so ``moments_to_lanczos`` converts
    it on that route rather than the far slower ``Fraction`` one.
    """
    s2 = Fraction(model.sigma0) ** 2
    g2 = Fraction(model.gamma) ** 2
    d = g2 / (2 * s2)
    p, q = d.numerator, d.denominator
    values = [Fraction(0)] * (order + 1)
    values[0] = Fraction(1)
    for n in range(1, order // 2 + 1):
        total = 0
        falling = 1  # (n-1)!/(j-1)!
        for j in range(n, 0, -1):
            total += math.comb(2 * n - j - 1, n - 1) * falling \
                * p**j * q**(n - j)
            falling *= j - 1
        values[2 * n] = Fraction(
            math.factorial(2 * n) // math.factorial(n) * total, q**n) \
            * (s2 * s2 / g2) ** n
    return MomentSequence(tuple(values), precision_bits=128)


def moments_of_model(model: AmplitudeModel, order: int) -> MomentSequence:
    """Power moments mu_0..mu_order of the density implied by a model.

    Every amplitude model gives exact rationals in its binary parameters.
    The Gaussian, semicircle and truncated-quadratic sequences carry
    ``precision_bits=None`` (exact ``Fraction`` recursion in
    ``moments_to_lanczos``); the interpolation sequence carries 128, which
    sends it through the ``mpmath`` recursion, whose working precision
    ``moments_to_lanczos`` sets.  Any other object raises
    ``VariantError``.
    """
    if not isinstance(order, (int, np.integer)) or order < 2 or order % 2:
        raise DomainError(f"order must be an even integer >= 2, got {order}")

    if isinstance(model, GaussianAutocorr):
        s2 = Fraction(model.sigma0) ** 2
        values = [Fraction(0)] * (order + 1)
        for k in range(order // 2 + 1):
            values[2 * k] = _double_factorial_odd(k) * s2**k
        return MomentSequence(tuple(values), precision_bits=None)
    if isinstance(model, SemicircleAutocorr):
        a2 = Fraction(model.alpha) ** 2
        values = [Fraction(0)] * (order + 1)
        for k in range(order // 2 + 1):
            values[2 * k] = _catalan(k) * a2**k
        return MomentSequence(tuple(values), precision_bits=None)
    if isinstance(model, TruncatedQuadraticAutocorr):
        values = [Fraction(0)] * (order + 1)
        values[0] = Fraction(1)
        values[2] = Fraction(model.sigma0) ** 2
        return MomentSequence(tuple(values), precision_bits=None)
    if isinstance(model, InterpolationAutocorr):
        return _interpolation_moments(model, order)
    raise VariantError(f"unknown model type {type(model).__name__}")


def model_from_dict(data: dict) -> AmplitudeModel:
    """The model named by ``data["variant"]``, with the remaining keys as
    its parameters; unknown variants or keys are rejected."""
    if "variant" not in data:
        raise DomainError("model dict needs a 'variant' key")
    name = data["variant"]
    cls = _VARIANTS.get(name)
    if cls is None:
        raise VariantError(
            f"unknown variant {name!r}; expected one of {sorted(_VARIANTS)}")
    kwargs = {k: v for k, v in data.items() if k != "variant"}
    fields = set(cls.__dataclass_fields__)
    unknown = set(kwargs) - fields
    if unknown:
        raise DomainError(f"unknown keys for variant {name!r}: "
                          f"{sorted(unknown)}")
    missing = fields - set(kwargs)
    if missing:
        raise DomainError(f"variant {name!r} missing keys: {sorted(missing)}")
    return cls(**kwargs)
