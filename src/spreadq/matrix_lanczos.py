"""Tridiagonalization of explicit (H, psi0) pairs.

Two independent routes to the same coefficients:

- ``lanczos_tridiagonalize``: three-term recursion with full
  reorthogonalization (two Gram-Schmidt passes against every previous basis
  vector) each step.  Reference for partial depth K < dimension.
- ``householder_hessenberg``: rotate psi0 onto e1 with one reflector (an
  index swap when psi0 is a basis vector), then one LAPACK reduction to
  tridiagonal form, bound in ``_lapack`` and chosen by ``reduction_kernel``
  from the order n alone: the blocked one-stage ``dsytrd`` below
  ``TWO_STAGE_MIN_ORDER``, the two-stage ``dsytrd_2stage`` (full matrix to
  band with level-3 BLAS, band to tridiagonal by bulge chasing) at and
  above it.  With the lower triangle stored, either reduction transforms
  only rows and columns 2..n, so e1 stays fixed and the first basis vector
  of the combined transform stays (up to sign) psi0.
  Reference for full-depth coefficient profiles; backward-stable at any
  dimension.

Both take real input only (``hamiltonians.matrix_and_state``).  Both
truncate at the first sub-diagonal entry below 1e-12 * ||H||: past a
decoupling the tridiagonal block no longer describes the Krylov space of
psi0.  The Lanczos path estimates ||H|| by power iteration once a residual
nears the cut; the Householder path takes it exactly from the end eigenvalues
of its full tridiagonal (LAPACK ``dstebz``), orthogonally similar to H.
"""
import numpy as np

from . import _lapack
from .errors import DomainError
from .hamiltonians import matrix_and_state
from .moment_lanczos import LanczosCoefficients

TERMINATION_RTOL = 1e-12
POWER_ITERATIONS = 30
# smallest order reduced by dsytrd_2stage; see reduction_kernel
TWO_STAGE_MIN_ORDER = 2048


def spectral_norm_estimate(matrix: np.ndarray) -> float:
    """Power iteration from a fixed start vector (deterministic)."""
    n = matrix.shape[0]
    vec = np.full(n, 1.0 / np.sqrt(n))
    est = 0.0
    for _ in range(POWER_ITERATIONS):
        vec = matrix @ vec
        est = np.linalg.norm(vec)
        if est == 0.0:
            return 0.0
        vec = vec / est
    return float(est)


def lanczos_tridiagonalize(ham, psi0, K: int, return_basis: bool = False):
    """Krylov tridiagonalization with full reorthogonalization.

    Returns ``LanczosCoefficients`` (and the Krylov basis as a ``(k, n)``
    array when ``return_basis`` is set).  Terminates early at Krylov-space
    exhaustion, reporting the actual depth.
    """
    matrix, start = matrix_and_state(ham, psi0)
    n = matrix.shape[0]
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise DomainError(f"K must be a positive integer, got {K}")
    if K > n:
        raise DomainError(f"K={K} exceeds the dimension {n}")

    # estimate <= ||H||_2 <= ||H||_F, so a residual above this gate (2 is a
    # rounding margin) is never cut: estimate only once one falls below it
    gate = 2.0 * TERMINATION_RTOL * np.linalg.norm(matrix)
    tol = None
    basis = np.zeros((K, n))
    basis[0] = start
    a = []
    b = []
    for k in range(K):
        w = matrix @ basis[k]
        a.append(float(basis[k] @ w))
        if k + 1 == K:
            break
        # two passes of Gram-Schmidt against the whole collected basis
        for _ in range(2):
            coeffs = basis[:k + 1] @ w
            w = w - coeffs @ basis[:k + 1]
        rnorm = np.linalg.norm(w)
        if rnorm <= gate:
            if tol is None:
                tol = TERMINATION_RTOL * spectral_norm_estimate(matrix)
            if rnorm <= tol:
                break
        b.append(float(rnorm))
        basis[k + 1] = w / rnorm
    k_actual = len(a)
    lc = LanczosCoefficients(a=np.array(a), b=np.array(b), physical=True)
    if return_basis:
        return lc, basis[:k_actual]
    return lc


def reduction_kernel(n: int) -> str:
    """Name of the ``_lapack`` reduction ``householder_hessenberg`` runs on
    a matrix of order ``n``: ``"dsytrd"`` below ``TWO_STAGE_MIN_ORDER``,
    ``"dsytrd_2stage"`` from it on.

    The two-stage reduction pays for its single-threaded bulge chasing
    only once the matrix no longer fits in cache.  Alternated calls in one
    process on GOE matrices (2-core x86-64 VM, numpy's OpenBLAS 0.3.31,
    median of 4 calls each):

    ====  ==========  =================
    n     ``dsytrd``  ``dsytrd_2stage``
    ====  ==========  =================
    1000       53 ms              95 ms
    1500      198 ms             251 ms
    2000      485 ms             602 ms
    2500      892 ms             908 ms
    2800     1164 ms            1137 ms
    3000     1606 ms            1365 ms
    3432     3098 ms            2630 ms
    ====  ==========  =================

    Between about 2000 and 2800 the two trade places from run to run (at
    2048: 511 against 504 ms in one run, 523 against 575 ms in another),
    so the crossover may sit anywhere in that band.  frm's N = 1000
    members take the one-stage kernel and the L = 14 spin chain
    (n = 3432) the two-stage one.
    """
    return "dsytrd" if n < TWO_STAGE_MIN_ORDER else "dsytrd_2stage"


def householder_hessenberg(ham, psi0) -> LanczosCoefficients:
    """Full-depth tridiagonalization via one reflector plus LAPACK.

    Sub-diagonal entries are made non-negative (diagonal sign flips leave
    the coefficients' physics unchanged) and the profile is truncated at
    the first decoupling, as in the Lanczos path, with ||H|| taken exactly
    from the extreme eigenvalues of the full tridiagonal.

    When psi0 is a multiple of a basis vector e_j, the reflector is the
    symmetric swap of indices 0 and j (a plain copy for j = 0): its sign
    flips do not change a_n or |b_n|, so no rank-2 update is formed.  Any
    other psi0 takes the reflector route.  Either way the reduction that
    ``reduction_kernel`` names for the order of H works in place on one
    private copy; the caller's H is never written.  A nonzero LAPACK
    ``info`` raises ``LapackError``.
    """
    matrix, start = matrix_and_state(ham, psi0)
    n = matrix.shape[0]
    if n == 1:
        return LanczosCoefficients(a=matrix[0, :1].astype(float).copy(),
                                   b=np.zeros(0), physical=True)

    support = np.flatnonzero(start)
    if support.size == 1:
        rotated = np.array(matrix, dtype=float, order="C")
        j = int(support[0])
        if j != 0:
            rotated[[0, j]] = rotated[[j, 0]]
            rotated[:, [0, j]] = rotated[:, [j, 0]]
    else:
        # reflector v sending psi0 to +-e1; sign chosen to avoid
        # cancellation
        sign = -1.0 if start[0] >= 0 else 1.0
        v = start.astype(float).copy()
        v[0] -= sign
        # v^T v = 2 (1 + |psi0[0]|) >= 2, so the reflector never degenerates
        vnorm2 = v @ v
        hv = matrix @ v
        alpha = 2.0 / vnorm2
        beta = alpha * alpha / 2.0 * (v @ hv)
        # P H P with P = I - 2 v v^T / (v^T v), via a rank-2 update
        u = alpha * hv - beta * v
        rotated = matrix - np.outer(u, v) - np.outer(v, u)
        rotated = (rotated + rotated.T) / 2.0

    # rotated is symmetric and C-ordered, so its transpose is the same
    # matrix in Fortran order: the reduction overwrites it without another
    # copy
    diag, off = getattr(_lapack, reduction_kernel(n))(rotated.T)
    off = np.abs(off)

    # the full tridiagonal is orthogonally similar to H: its end
    # eigenvalues give ||H||_2 exactly
    norm = max(abs(_lapack.dstebz(diag, off, i)) for i in (0, n - 1))
    tol = TERMINATION_RTOL * norm
    cut = np.nonzero(off <= tol)[0]
    k_actual = int(cut[0]) + 1 if cut.size else n
    return LanczosCoefficients(a=diag[:k_actual], b=off[:k_actual - 1],
                               physical=True)
