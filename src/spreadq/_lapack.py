"""The three LAPACK routines spreadq calls, from scipy's LAPACK library.

The library is the shared object behind ``scipy.linalg._flapack``.  It is
loaded here with ``ctypes`` from its file under the scipy package, without
running the extension's module init, so the command line never imports
``scipy.linalg`` (about 0.3 s of start-up).  Where that file is not found,
importing ``scipy.linalg._flapack`` names the same library; only the
start-up saving is lost.

Each routine is called with the arguments scipy's own wrappers pass, so
the results are bit-identical to theirs:

- ``dstevd``: all eigenpairs of a symmetric tridiagonal (``JOBZ='V'``,
  ``LWORK = 1 + 4n + n^2``, ``LIWORK = 3 + 5n``), which is what
  ``scipy.linalg.eigh_tridiagonal`` runs by default;
- ``dstebz``: one eigenvalue by index (``RANGE='I'``, ``ORDER='E'``,
  ``ABSTOL=0``), as in ``eigvalsh_tridiagonal(select="i")``;
- ``dsytrd_2stage``: two-stage reduction to tridiagonal form, which scipy
  links but does not wrap (in reference LAPACK since 3.7.0).

Symbols resolve as ``scipy_<name>_`` (scipy's bundled OpenBLAS), then
``<name>_``; importing this module fails where any of the three is missing.
Arguments are LP64 ``int``, as in scipy's wrappers, followed by one
trailing ``size_t`` length per character argument.
"""
import ctypes
import importlib.machinery
import os

import numpy as np
import scipy

from .errors import DomainError, LapackError


def _library_path() -> str:
    linalg = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            return path
    from scipy.linalg import _flapack
    return _flapack.__file__


_LIBRARY = ctypes.CDLL(_library_path())

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_VECTOR = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_INDICES = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS")
_SQUARE = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
_CHAR = ctypes.c_char_p
_LENGTH = ctypes.c_size_t


def _routine(name: str, argtypes):
    """The library's routine ``name`` with its argument types, or None."""
    for symbol in (f"scipy_{name}_", f"{name}_"):
        routine = getattr(_LIBRARY, symbol, None)
        if routine is not None:
            routine.argtypes = argtypes
            routine.restype = None
            return routine
    return None


# JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO
_STEVD = _routine("dstevd", [_CHAR, _INT, _VECTOR, _VECTOR, _SQUARE, _INT,
                             _VECTOR, _INT, _INDICES, _INT, _INT, _LENGTH])
# RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
# ISPLIT, WORK, IWORK, INFO
_STEBZ = _routine("dstebz", [_CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT,
                             _INT, _DOUBLE, _VECTOR, _VECTOR, _INT, _INT,
                             _VECTOR, _INDICES, _INDICES, _VECTOR, _INDICES,
                             _INT, _LENGTH, _LENGTH])
# VECT, UPLO, N, A, LDA, D, E, TAU, HOUS2, LHOUS2, WORK, LWORK, INFO
_SYTRD_2STAGE = _routine("dsytrd_2stage",
                         [_CHAR, _CHAR, _INT, _SQUARE, _INT, _VECTOR,
                          _VECTOR, _VECTOR, _VECTOR, _INT, _VECTOR, _INT,
                          _INT, _LENGTH, _LENGTH])
if _STEVD is None or _STEBZ is None or _SYTRD_2STAGE is None:
    raise ImportError("scipy's LAPACK library exports no dstevd, dstebz or "
                      "dsytrd_2stage")


def _tridiagonal(d, e):
    """Finite float64 copies of (d, e), with e one entry shorter than d."""
    d = np.array(d, dtype=float)
    e = np.array(e, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or d.size < 1 or e.size != d.size - 1:
        raise DomainError(f"a tridiagonal needs d of shape (n,) and e of "
                          f"shape (n-1,), got {d.shape} and {e.shape}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError("tridiagonal entries must be finite")
    return d, e


def _check(name: str, info: ctypes.c_int) -> None:
    if info.value != 0:
        raise LapackError(f"{name} failed with info={info.value}")


def dstevd(d, e):
    """Ascending eigenvalues and eigenvectors (columns, Fortran order) of
    the symmetric tridiagonal with diagonal ``d`` and off-diagonal ``e``."""
    values, e = _tridiagonal(d, e)
    n = values.size
    if n == 1:
        return values, np.ones((1, 1))
    vectors = np.empty((n, n), order="F")
    lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
    info = ctypes.c_int(0)
    # D returns the eigenvalues; E is destroyed (it is a private copy)
    _STEVD(b"V", ctypes.c_int(n), values, e, vectors, ctypes.c_int(n),
           np.empty(lwork), ctypes.c_int(lwork),
           np.empty(liwork, dtype=np.intc), ctypes.c_int(liwork), info, 1)
    _check("dstevd", info)
    return values, vectors


def dstebz(d, e, i: int) -> float:
    """Eigenvalue number ``i`` (0-based, ascending) of the symmetric
    tridiagonal with diagonal ``d`` and off-diagonal ``e``."""
    d, e = _tridiagonal(d, e)
    n = d.size
    if not 0 <= i < n:
        raise DomainError(f"eigenvalue index {i} out of range for order {n}")
    if n == 1:
        return float(d[0])
    m, nsplit, info = ctypes.c_int(0), ctypes.c_int(0), ctypes.c_int(0)
    values = np.empty(n)
    _STEBZ(b"I", b"E", ctypes.c_int(n), ctypes.c_double(0.0),
           ctypes.c_double(1.0), ctypes.c_int(i + 1), ctypes.c_int(i + 1),
           ctypes.c_double(0.0), d, e, m, nsplit, values,
           np.empty(n, dtype=np.intc), np.empty(n, dtype=np.intc),
           np.empty(4 * n), np.empty(3 * n, dtype=np.intc), info, 1, 1)
    _check("dstebz", info)
    return float(values[0])


def dsytrd_2stage(a):
    """Reduce the lower triangle of a Fortran-ordered float64 square array
    in place (``VECT='N'``, ``UPLO='L'``); returns the diagonal and
    off-diagonal ``(d, e)`` of the tridiagonal."""
    n = a.shape[0]
    if a.shape != (n, n) or n < 2:
        raise DomainError(f"dsytrd_2stage needs a square array of "
                          f"order >= 2, got shape {a.shape}")
    n_c, info, query = ctypes.c_int(n), ctypes.c_int(0), ctypes.c_int(-1)
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    hous2, work = np.empty(1), np.empty(1)
    _SYTRD_2STAGE(b"N", b"L", n_c, a, n_c, d, e, tau, hous2, query, work,
                  query, info, 1, 1)
    _check("dsytrd_2stage", info)
    lhous2, lwork = int(hous2[0]), int(work[0])
    hous2, work = np.empty(lhous2), np.empty(lwork)
    _SYTRD_2STAGE(b"N", b"L", n_c, a, n_c, d, e, tau, hous2,
                  ctypes.c_int(lhous2), work, ctypes.c_int(lwork), info, 1, 1)
    _check("dsytrd_2stage", info)
    return d, e
