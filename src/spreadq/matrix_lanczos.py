"""Tridiagonalization of explicit (H, psi0) pairs.

Two independent routes to the same coefficients:

- ``lanczos_tridiagonalize``: three-term recursion with full
  reorthogonalization (two Gram-Schmidt passes against every previous basis
  vector) each step.  Reference for partial depth K < dimension.
- ``householder_hessenberg``: rotate psi0 onto e1 with one reflector (an
  index swap when psi0 is a basis vector), then LAPACK dsytrd.  The dsytrd
  reflectors all leave e1 fixed, so the first basis vector of the combined
  transform stays (up to sign) psi0.  Reference for full-depth coefficient
  profiles; backward-stable at any dimension.

Both truncate at the first sub-diagonal entry below 1e-12 * ||H|| (spectral
norm estimated by power iteration): past a decoupling the tridiagonal block
no longer describes the Krylov space of psi0.
"""
import struct

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, LapackError, NormalizationError
from .hamiltonians import SectorHamiltonian, StateVector
from .moment_lanczos import LanczosCoefficients

TERMINATION_RTOL = 1e-12
POWER_ITERATIONS = 30

BASIS_MAGIC = b"KSB1"
# magic, u32 rows, u32 cols, 4 reserved bytes
_BASIS_HEADER = struct.Struct("<4sII4x")


def _unpack(ham, psi0):
    matrix = ham.H if isinstance(ham, SectorHamiltonian) else np.asarray(ham)
    vec = psi0.amplitudes if isinstance(psi0, StateVector) \
        else np.asarray(psi0)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"H must be square, got shape {matrix.shape}")
    if vec.shape != (matrix.shape[0],):
        raise DomainError(
            f"dimension mismatch: H is {matrix.shape[0]}, state is "
            f"{vec.shape}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-12:
        raise NormalizationError(
            f"psi0 norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return matrix, vec


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
    matrix, start = _unpack(ham, psi0)
    n = matrix.shape[0]
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise DomainError(f"K must be a positive integer, got {K}")
    if K > n:
        raise DomainError(f"K={K} exceeds the dimension {n}")

    tol = TERMINATION_RTOL * spectral_norm_estimate(matrix)
    complex_input = np.iscomplexobj(matrix) or np.iscomplexobj(start)
    dtype = complex if complex_input else float
    basis = np.zeros((K, n), dtype=dtype)
    basis[0] = start
    a = []
    b = []
    for k in range(K):
        w = matrix @ basis[k]
        a_k = np.vdot(basis[k], w).real
        a.append(float(a_k))
        if k + 1 == K:
            break
        # two passes of Gram-Schmidt against the whole collected basis
        for _ in range(2):
            coeffs = basis[:k + 1].conj() @ w
            w = w - coeffs @ basis[:k + 1]
        rnorm = np.linalg.norm(w)
        if rnorm <= tol:
            break
        b.append(float(rnorm))
        basis[k + 1] = w / rnorm
    k_actual = len(a)
    lc = LanczosCoefficients(a=np.array(a), b=np.array(b), physical=True)
    if return_basis:
        return lc, basis[:k_actual]
    return lc


def householder_hessenberg(ham, psi0) -> LanczosCoefficients:
    """Full-depth tridiagonalization via one reflector plus LAPACK dsytrd.

    Real symmetric input only.  Sub-diagonal entries are made non-negative
    (diagonal sign flips leave the coefficients' physics unchanged) and the
    profile is truncated at the first decoupling, as in the Lanczos path.

    When psi0 is a multiple of a basis vector e_j, the reflector is the
    symmetric swap of indices 0 and j (a plain copy for j = 0): its sign
    flips do not change a_n or |b_n|, so no rank-2 update is formed.  Any
    other psi0 takes the reflector route.  Either way dsytrd reduces one
    private copy in place; the caller's H is never written.
    """
    matrix, start = _unpack(ham, psi0)
    if np.iscomplexobj(matrix) or np.iscomplexobj(start):
        raise DomainError("householder path supports real input only")
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
    # matrix in Fortran order: dsytrd overwrites it without another copy
    _, d, e, _, info = lapack.dsytrd(rotated.T, lower=1, overwrite_a=1)
    if info != 0:
        raise LapackError(f"dsytrd failed with info={info}")
    diag = np.asarray(d, dtype=float)
    off = np.abs(np.asarray(e, dtype=float))

    tol = TERMINATION_RTOL * spectral_norm_estimate(matrix)
    cut = np.nonzero(off <= tol)[0]
    k_actual = int(cut[0]) + 1 if cut.size else n
    return LanczosCoefficients(a=diag[:k_actual], b=off[:k_actual - 1],
                               physical=True)


def write_basis_binary(basis: np.ndarray, path) -> None:
    """Krylov basis dump: row-major float64 little-endian, 16-byte header."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise DomainError("basis must be a 2-d array")
    rows, cols = basis.shape
    with open(path, "wb") as fh:
        fh.write(_BASIS_HEADER.pack(BASIS_MAGIC, rows, cols))
        fh.write(basis.astype("<f8").tobytes())


def read_basis_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_BASIS_HEADER.size)
        if len(header) != _BASIS_HEADER.size:
            raise DomainError(f"{path}: truncated header")
        magic, rows, cols = _BASIS_HEADER.unpack(header)
        if magic != BASIS_MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}")
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != rows * cols:
        raise DomainError(f"{path}: expected {rows * cols} entries, got "
                          f"{payload.size}")
    return payload.reshape(rows, cols).copy()
