"""Tridiagonalization of explicit Hamiltonians from a start state.

Two independent routes to the same coefficients:

- ``householder_hessenberg``: from a basis vector e_j, swap indices 0 and
  j, then one LAPACK reduction to tridiagonal form, bound in ``_lapack``
  and chosen by ``reduction_kernel`` from the order n and the depth asked
  for.  At full depth it is the blocked one-stage ``dsytrd`` below
  ``TWO_STAGE_MIN_ORDER`` and the two-stage ``dsytrd_2stage`` (full matrix
  to band with level-3 BLAS, band to tridiagonal by bulge chasing) at and
  above it; a depth K < n runs ``dsytrd``'s own blocked loop only over the
  first K-1 columns (``dsytrd_leading``).  With the lower triangle stored,
  each reduction transforms only rows and columns 2..n, so e1 stays fixed
  and the first basis vector of the combined transform is e_j.
  Backward-stable at any dimension and depth; the one route the CLI runs.
  The swap needs no matrix beside the one it reduces: by default a private
  copy, with ``overwrite_h`` (as the CLI's members ask) the caller's H
  itself, so a depth-K member holds n^2 doubles, not 2 n^2.  Every quench
  the commands run starts from a basis vector: e_0 for a GOE matrix, which
  is rotation-invariant, and the domain wall for the spin chain.
- ``lanczos_tridiagonalize``: three-term recursion with full
  reorthogonalization (two Gram-Schmidt passes against every previous basis
  vector) each step, from any real unit vector psi0.  No command calls it:
  it is the independent reference the tests hold the Householder route to,
  and it can return its Krylov basis.

Both take a real square H only.  Both truncate at the first sub-diagonal
entry below 1e-12 * ||H||: past a decoupling the tridiagonal block no
longer describes the Krylov space of the start.  Where the full
tridiagonal is at hand, ||H|| is exact from its end eigenvalues (LAPACK
``dstebz``), as T is orthogonally similar to H.  A partial T or a Lanczos
run gives no ||H||, so there a power-iteration estimate runs once some
entry falls below a Frobenius-norm gate: on H in the Lanczos run, and on
the partially reduced matrix, which is orthogonally similar to H, in the
Householder one.
"""
import numpy as np

from . import _lapack
from .errors import DomainError
from .hamiltonians import tile_pairs
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


def _estimate_gate(matrix) -> float:
    """Sub-diagonal entries above this are never cut: estimate <= ||H||_2
    <= ||H||_F, and 2 is a rounding margin.  So the norm estimate need run
    only once some entry falls below it."""
    return 2.0 * TERMINATION_RTOL * float(np.linalg.norm(matrix))


def _real_square(ham) -> np.ndarray:
    matrix = np.asarray(ham)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"H must be square, got shape {matrix.shape}")
    if np.iscomplexobj(matrix):
        raise DomainError("H must be real")
    return matrix


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
    matrix = _real_square(ham)
    n = matrix.shape[0]
    start = np.asarray(psi0)
    if start.shape != (n,):
        raise DomainError(
            f"dimension mismatch: H is {n}, state is {start.shape}")
    if np.iscomplexobj(start):
        raise DomainError("psi0 must be real")
    norm = np.linalg.norm(start)
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(
            f"psi0 norm deviates from 1 by {abs(norm - 1.0):.3e}")
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
    only once the matrix no longer fits in cache.  Timed against each
    other, the two trade places from run to run between orders of about
    2000 and 2800, so the crossover may sit anywhere in that band; frm's
    N = 1000 members take the one-stage kernel and the L = 14 spin chain
    (n = 3432) the two-stage one.  The partial reduction is faster than
    ``lanczos_tridiagonalize`` at every depth, which is why the ``--K``
    path runs it.
    """
    if depth is not None and depth < n:
        return "dsytrd_leading"
    return "dsytrd" if n < TWO_STAGE_MIN_ORDER else "dsytrd_2stage"


def _reduced_matrix(reduced: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The whole symmetric matrix a partial reduction leaves, made up in
    the reduced buffer itself: the tridiagonal head (``e`` below the
    diagonal of the reduced columns, whose stored Householder vectors are
    zeroed) joined to the updated trailing block, the lower triangle
    mirrored onto the upper one.  Up to the signs of ``e`` (a diagonal
    similarity) it is Q^T H Q, so it has the spectrum of the H that was
    reduced."""
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


def householder_hessenberg(ham, start: int, depth: int | None = None,
                           overwrite_h: bool = False) -> LanczosCoefficients:
    """The first ``depth`` coefficients (all n for ``None``) of H from the
    basis vector e_start, via one index swap plus LAPACK.

    Sub-diagonal entries are made non-negative (diagonal sign flips leave
    the coefficients' physics unchanged) and the profile is truncated at
    the first decoupling, as in the Lanczos path.  At full depth ||H|| is
    exact from the extreme eigenvalues of the full tridiagonal.  A partial
    one takes the Frobenius gate of H before reducing, and only once some
    sub-diagonal entry falls below it estimates ||H|| by power iteration on
    the reduced buffer made whole (``_reduced_matrix``), which is
    orthogonally similar to H.

    ``start`` is an integer index in 0..n-1 (not a bool); anything else
    raises ``DomainError``.  The symmetric swap of indices 0 and ``start``
    and the reduction that ``reduction_kernel`` names for the order of H
    and the depth work in place on one n^2 buffer.  By default that buffer
    is a private copy and the caller's H is never written.  With
    ``overwrite_h`` (scipy's ``overwrite_a``) the swap and reduction run on
    the caller's array itself, if it is float64, C- or F-contiguous and
    writeable (otherwise it is copied as by default), and leave it holding
    reduction debris; the coefficients are bit-identical either way.  A
    nonzero LAPACK ``info`` raises ``LapackError``.
    """
    matrix = _real_square(ham)
    n = matrix.shape[0]
    if isinstance(start, bool) or not isinstance(start, (int, np.integer)) \
            or not 0 <= start < n:
        raise DomainError(
            f"start must be a basis index in 0..{n - 1}, got {start!r}")
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
    if start != 0:
        rotated[[0, start]] = rotated[[start, 0]]
        rotated[:, [0, start]] = rotated[:, [start, 0]]

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
