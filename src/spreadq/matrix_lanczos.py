"""Tridiagonalization of explicit (H, psi0) pairs.

Two independent routes to the same coefficients:

- ``householder_hessenberg``: rotate psi0 onto e1 with one reflector (an
  index swap when psi0 is a basis vector), then one LAPACK reduction to
  tridiagonal form, bound in ``_lapack`` and chosen by ``reduction_kernel``
  from the order n and the depth asked for.  At full depth it is the
  blocked one-stage ``dsytrd`` below ``TWO_STAGE_MIN_ORDER`` and the
  two-stage ``dsytrd_2stage`` (full matrix to band with level-3 BLAS, band
  to tridiagonal by bulge chasing) at and above it; a depth K < n runs
  ``dsytrd``'s own blocked loop only over the first K-1 columns
  (``dsytrd_leading``).  With the lower triangle stored, each reduction
  transforms only rows and columns 2..n, so e1 stays fixed and the first
  basis vector of the combined transform stays (up to sign) psi0.
  Backward-stable at any dimension and depth; the one route the CLI runs.
  Neither the swap nor the reflector needs a matrix beside the one it
  reduces: by default a private copy, with ``overwrite_h`` (as the CLI's
  members ask) the caller's H itself, so a depth-K member holds n^2
  doubles, not 2 n^2.
- ``lanczos_tridiagonalize``: three-term recursion with full
  reorthogonalization (two Gram-Schmidt passes against every previous basis
  vector) each step.  No command calls it: it is the independent reference
  the tests hold the Householder route to, and it can return its Krylov
  basis.

Both take real input only (``hamiltonians.matrix_and_state``).  Both
truncate at the first sub-diagonal entry below 1e-12 * ||H||: past a
decoupling the tridiagonal block no longer describes the Krylov space of
psi0.  Where the full tridiagonal is at hand, ||H|| is exact from its end
eigenvalues (LAPACK ``dstebz``), as T is orthogonally similar to H.  A
partial T or a Lanczos run gives no ||H||, so there a power-iteration
estimate runs once some entry falls below a Frobenius-norm gate: on H in
the Lanczos run, and on the partially reduced matrix, which is
orthogonally similar to H, in the Householder one.
"""
import numpy as np

from . import _lapack
from .errors import DomainError
from .hamiltonians import matrix_and_state, symmetrize_in_place, tile_pairs
from .moment_lanczos import LanczosCoefficients

TERMINATION_RTOL = 1e-12
POWER_ITERATIONS = 30
# smallest order reduced by dsytrd_2stage; see reduction_kernel
TWO_STAGE_MIN_ORDER = 2048
# rows of H per band of the reflector's rank-2 update
REFLECTOR_ROWS = 128


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


def _estimate_gate(matrix) -> float:
    """Sub-diagonal entries above this are never cut: estimate <= ||H||_2
    <= ||H||_F, and 2 is a rounding margin.  So the norm estimate need run
    only once some entry falls below it."""
    return 2.0 * TERMINATION_RTOL * float(np.linalg.norm(matrix))


def _check_depth(depth, n: int) -> int:
    if not isinstance(depth, (int, np.integer)) or depth < 1:
        raise DomainError(f"K must be a positive integer, got {depth}")
    if depth > n:
        raise DomainError(f"K={depth} exceeds the dimension {n}")
    return int(depth)


def lanczos_tridiagonalize(ham, psi0, K: int, return_basis: bool = False):
    """Krylov tridiagonalization with full reorthogonalization.

    Returns ``LanczosCoefficients`` (and the Krylov basis as a ``(k, n)``
    array when ``return_basis`` is set).  Terminates early at Krylov-space
    exhaustion, reporting the actual depth.

    An oracle with its own algorithm: no command calls it, and the tests of
    ``test_matrix_lanczos.py`` and ``test_acceptance.py::test_03`` hold
    ``householder_hessenberg`` to it.
    """
    matrix, start = matrix_and_state(ham, psi0)
    n = matrix.shape[0]
    K = _check_depth(K, n)

    gate = _estimate_gate(matrix)
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


def reduction_kernel(n: int, depth: int | None = None) -> str:
    """Name of the ``_lapack`` reduction ``householder_hessenberg`` runs on
    a matrix of order ``n`` to ``depth`` coefficients (``None``: all n).
    A depth below n takes ``"dsytrd_leading"``, the first depth-1 columns
    of ``dsytrd``'s blocked loop; full depth takes ``"dsytrd"`` below
    ``TWO_STAGE_MIN_ORDER`` and ``"dsytrd_2stage"`` from it on.

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

    The partial reduction replaced ``lanczos_tridiagonalize`` on the
    ``--K`` path.  Through ``householder_hessenberg`` (private copy
    included), median of 5 alternated calls on the same VM: GOE seed 1,
    member 0, n = 1000, K = 200: 25.3 against 70.6 ms, K = 40: 6.4
    against 9.6 ms; the L = 14 chain (n = 3432) at K = 200: 352 against
    758 ms.
    """
    if depth is not None and depth < n:
        return "dsytrd_leading"
    return "dsytrd" if n < TWO_STAGE_MIN_ORDER else "dsytrd_2stage"


def _reduced_matrix(reduced: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The whole symmetric matrix a partial reduction leaves, made up in
    the reduced buffer itself: the tridiagonal head (``e`` below the diagonal of the
    reduced columns, whose reflector entries are zeroed) joined to the
    updated trailing block, the lower triangle mirrored onto the upper one.
    Up to the signs of ``e`` (a diagonal similarity) it is Q^T H Q, so it
    has the spectrum of the H that was reduced."""
    for i, sub in enumerate(e):
        reduced[i + 1:, i] = 0.0
        reduced[i + 1, i] = sub
    for rows, cols in tile_pairs(reduced.shape[0]):
        if rows == cols:
            tile = reduced[rows, cols]
            tile[...] = np.tril(tile) + np.tril(tile, -1).T
        else:
            reduced[cols, rows] = reduced[rows, cols].T
    return reduced


def householder_hessenberg(ham, psi0, depth: int | None = None,
                           overwrite_h: bool = False) -> LanczosCoefficients:
    """The first ``depth`` coefficients (all n for ``None``) via one
    reflector plus LAPACK.

    Sub-diagonal entries are made non-negative (diagonal sign flips leave
    the coefficients' physics unchanged) and the profile is truncated at
    the first decoupling, as in the Lanczos path.  At full depth ||H|| is
    exact from the extreme eigenvalues of the full tridiagonal.  A partial
    one takes the Frobenius gate of H before reducing, and only once some
    sub-diagonal entry falls below it estimates ||H|| by power iteration on
    the reduced buffer made whole (``_reduced_matrix``), which is
    orthogonally similar to H.

    When psi0 is a multiple of a basis vector e_j, the reflector is the
    symmetric swap of indices 0 and j: its sign flips do not change a_n or
    |b_n|, so no rank-2 update is formed.  Any other psi0 takes the
    reflector route: the rank-2 update is applied ``REFLECTOR_ROWS`` rows
    at a time and the result symmetrized tile pair by tile pair
    (``symmetrize_in_place``).  Either way the rotation and the reduction
    that ``reduction_kernel`` names for the order of H and the depth work
    in place on one n^2 buffer.  By default that buffer is a private copy
    and the caller's H is never written.  With ``overwrite_h`` (scipy's
    ``overwrite_a``) the rotation and reduction run on the caller's array
    itself, if it is float64, C- or F-contiguous and writeable (otherwise
    it is copied as by default), and leave it holding reduction debris;
    the coefficients are bit-identical either way.  A nonzero LAPACK
    ``info`` raises ``LapackError``.
    """
    matrix, start = matrix_and_state(ham, psi0)
    n = matrix.shape[0]
    depth = n if depth is None else _check_depth(depth, n)
    if n == 1:
        return LanczosCoefficients(a=matrix[0, :1].astype(float).copy(),
                                   b=np.zeros(0), physical=True)

    # the gate reads H, so it is taken before H may be overwritten
    gate = _estimate_gate(matrix) if depth < n else None
    in_place = overwrite_h and matrix.dtype == np.float64 \
        and matrix.flags.writeable \
        and (matrix.flags.c_contiguous or matrix.flags.f_contiguous)
    rotated = matrix if in_place else np.array(matrix, dtype=float, order="C")
    support = np.flatnonzero(start)
    if support.size == 1:
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
        # P H P with P = I - 2 v v^T / (v^T v), via a rank-2 update applied
        # a row band at a time, so no n x n outer product is formed
        u = alpha * hv - beta * v
        for lo in range(0, n, REFLECTOR_ROWS):
            rows = slice(lo, lo + REFLECTOR_ROWS)
            rotated[rows] -= np.outer(u[rows], v)
            rotated[rows] -= np.outer(v[rows], u)
        symmetrize_in_place(rotated)

    # rotated is symmetric, so a C-ordered one's transpose is the same
    # matrix in Fortran order: the reduction overwrites it without another
    # copy
    reduced = rotated if rotated.flags.f_contiguous else rotated.T
    kernel = getattr(_lapack, reduction_kernel(n, depth))
    diag, off = kernel(reduced, depth) if depth < n else kernel(reduced)
    off = np.abs(off)

    if depth == n:
        # the full tridiagonal is orthogonally similar to H: its end
        # eigenvalues give ||H||_2 exactly
        norm = max(abs(_lapack.dstebz(diag, off, i)) for i in (0, n - 1))
        tol = TERMINATION_RTOL * norm
    else:
        tol = (TERMINATION_RTOL
               * spectral_norm_estimate(_reduced_matrix(reduced, off))
               if np.any(off <= gate) else gate)
    cut = np.nonzero(off <= tol)[0]
    k_actual = int(cut[0]) + 1 if cut.size else depth
    return LanczosCoefficients(a=diag[:k_actual], b=off[:k_actual - 1],
                               physical=True)
