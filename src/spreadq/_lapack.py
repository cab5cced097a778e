"""The LAPACK and BLAS routines spreadq calls, from the OpenBLAS numpy
links.

``ctypes.CDLL`` on the file of ``numpy.linalg._umath_linalg`` returns a
handle whose symbol lookup searches that extension's dependencies, so the
routines come from the OpenBLAS build that also runs numpy's GEMMs.  One
library means one BLAS thread pool.  Each OpenBLAS keeps its own worker
threads, which busy-wait for a while after a call: with a second library
(scipy's), every evolution GEMM after a LAPACK call ran at half speed on
two cores.

Each routine is called with the arguments scipy's own wrappers pass, so
the results are bit-identical to theirs:

- ``dstevd``: all eigenpairs of a symmetric tridiagonal (``JOBZ='V'``,
  ``LWORK = 1 + 4n + n^2``, ``LIWORK = 3 + 5n``), which is what
  ``scipy.linalg.eigh_tridiagonal`` runs by default;
- ``dstebz``: one eigenvalue by index (``RANGE='I'``, ``ORDER='E'``,
  ``ABSTOL=0``), as in ``eigvalsh_tridiagonal(select="i")``;
- ``dsytrd``: blocked one-stage reduction to tridiagonal form
  (``UPLO='L'``, optimal ``LWORK`` from a workspace query), as
  ``lapack.dsytrd(a, lower=1, lwork=dsytrd_lwork(n, lower=1)[0])``;
  scipy's default ``lwork = n`` runs the unblocked algorithm instead;
- ``dsytrd_2stage``: two-stage reduction to tridiagonal form, which scipy
  does not wrap (in reference LAPACK since 3.7.0);
- ``dlatrd`` and the BLAS ``dsyr2k``: one panel of ``dsytrd``'s blocked
  loop and its rank-2k update of the trailing lower triangle, which
  ``dsytrd_leading`` repeats only as far as the leading columns it needs.

After numpy's import and after every threaded call, OpenBLAS's worker
threads busy-wait for its ``THREAD_TIMEOUT`` (about 0.1 s) before they
sleep; ``openblas_set_num_threads(1)`` does not stop them.
``retire_threads`` calls ``blas_thread_shutdown_``, the hook OpenBLAS runs
before ``fork``, which joins the workers in about 0.1 ms; the next
threaded call starts the pool again at the same width.  The command line
calls it twice: at the start of ``main``, for the pool numpy's import
started, and at the end of each member's evolution, where that member's
dense work (reduction, eigensolve, evolution GEMMs) ends.  No library
function calls it, since a retire while another thread is inside BLAS is
unsafe.  ``blas_threads`` reads ``openblas_get_num_threads`` for
``manifest.json``, since GEMM results depend on the thread width.

Which reduction runs at which order is ``matrix_lanczos.reduction_kernel``:
the one-stage kernel is faster while the matrix fits in cache (half of its
work is matrix-vector products), the two-stage kernel beyond it.

The first pattern of ``_SYMBOLS`` that names all six routines fixes the
Fortran INTEGER.  numpy's wheels export ILP64 ``scipy_<name>_64_``, so
every integer argument, the IWORK/IBLOCK/ISPLIT arrays included, is 64-bit
there.  Each character argument takes a trailing ``size_t`` length.
Importing this module fails where no pattern names all six.
"""
import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, LapackError

_NAMES = ("dstevd", "dstebz", "dsytrd", "dsytrd_2stage", "dlatrd",
          "dsyr2k")
# symbol pattern and Fortran INTEGER of each OpenBLAS or LAPACK build
_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
            ("scipy_{}_", ctypes.c_int), ("{}_", ctypes.c_int))

_LIBRARY = ctypes.CDLL(_umath_linalg.__file__)
for _SYMBOL, _INTEGER in _SYMBOLS:
    if all(hasattr(_LIBRARY, _SYMBOL.format(name)) for name in _NAMES):
        break
else:
    raise ImportError("the LAPACK numpy links lacks one of "
                      + ", ".join(_NAMES))

_INT = ctypes.POINTER(_INTEGER)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_VECTOR = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_INDEX = np.dtype(_INTEGER)
_INDICES = np.ctypeslib.ndpointer(_INDEX, ndim=1, flags="C_CONTIGUOUS")
_SQUARE = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
# a raw address: an element of a matrix, read with the matrix's LDA
_ADDRESS = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_LENGTH = ctypes.c_size_t


def _routine(name: str, argtypes):
    """The library's routine ``name`` with its argument types."""
    routine = getattr(_LIBRARY, _SYMBOL.format(name))
    routine.argtypes = argtypes
    routine.restype = None
    return routine


# JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO
_STEVD = _routine("dstevd", [_CHAR, _INT, _VECTOR, _VECTOR, _SQUARE, _INT,
                             _VECTOR, _INT, _INDICES, _INT, _INT, _LENGTH])
# RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
# ISPLIT, WORK, IWORK, INFO
_STEBZ = _routine("dstebz", [_CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT,
                             _INT, _DOUBLE, _VECTOR, _VECTOR, _INT, _INT,
                             _VECTOR, _INDICES, _INDICES, _VECTOR, _INDICES,
                             _INT, _LENGTH, _LENGTH])
# UPLO, N, NB, A, LDA, E, TAU, W, LDW
_LATRD = _routine("dlatrd", [_CHAR, _INT, _INT, _ADDRESS, _INT, _VECTOR,
                             _VECTOR, _VECTOR, _INT, _LENGTH])
# UPLO, TRANS, N, K, ALPHA, A, LDA, B, LDB, BETA, C, LDC
_SYR2K = _routine("dsyr2k", [_CHAR, _CHAR, _INT, _INT, _DOUBLE, _ADDRESS,
                             _INT, _VECTOR, _INT, _DOUBLE, _ADDRESS, _INT,
                             _LENGTH, _LENGTH])
# UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO
_SYTRD = _routine("dsytrd", [_CHAR, _INT, _SQUARE, _INT, _VECTOR, _VECTOR,
                             _VECTOR, _VECTOR, _INT, _INT, _LENGTH])
# VECT, UPLO, N, A, LDA, D, E, TAU, HOUS2, LHOUS2, WORK, LWORK, INFO
_SYTRD_2STAGE = _routine("dsytrd_2stage",
                         [_CHAR, _CHAR, _INT, _SQUARE, _INT, _VECTOR,
                          _VECTOR, _VECTOR, _VECTOR, _INT, _VECTOR, _INT,
                          _INT, _LENGTH, _LENGTH])


def _optional(*names):
    """The first of ``names`` the library exports, taking no argument and
    returning a C int, or None where it exports none of them."""
    for name in names:
        if hasattr(_LIBRARY, name):
            function = getattr(_LIBRARY, name)
            function.argtypes, function.restype = [], ctypes.c_int
            return function
    return None


# OpenBLAS's names, and those numpy's wheels give the thread count
_SHUTDOWN = _optional("blas_thread_shutdown_")
_THREADS = _optional("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads")


def retire_threads() -> None:
    """Stop the BLAS worker threads, which busy-wait after every threaded
    call; the next threaded call starts them again, with bit-identical
    results.  Unsafe while another thread is inside BLAS, so no library
    function calls it: only the command line, which owns its process."""
    if _SHUTDOWN is not None:
        _SHUTDOWN()


def blas_threads() -> int | None:
    """The number of threads a BLAS call may use, or None where the
    library does not say."""
    return None if _THREADS is None else _THREADS()


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


def _check(name: str, info) -> None:
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
    info = _INTEGER(0)
    # D returns the eigenvalues; E is destroyed (it is a private copy)
    _STEVD(b"V", _INTEGER(n), values, e, vectors, _INTEGER(n),
           np.empty(lwork), _INTEGER(lwork),
           np.empty(liwork, dtype=_INDEX), _INTEGER(liwork), info, 1)
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
    m, nsplit, info = _INTEGER(0), _INTEGER(0), _INTEGER(0)
    values = np.empty(n)
    _STEBZ(b"I", b"E", _INTEGER(n), ctypes.c_double(0.0),
           ctypes.c_double(1.0), _INTEGER(i + 1), _INTEGER(i + 1),
           ctypes.c_double(0.0), d, e, m, nsplit, values,
           np.empty(n, dtype=_INDEX), np.empty(n, dtype=_INDEX),
           np.empty(4 * n), np.empty(3 * n, dtype=_INDEX), info, 1, 1)
    _check("dstebz", info)
    return float(values[0])


def _square_order(name: str, a) -> int:
    n = a.shape[0]
    if a.shape != (n, n) or n < 2:
        raise DomainError(f"{name} needs a square array of order >= 2, "
                          f"got shape {a.shape}")
    return n


def dsytrd(a):
    """Reduce the lower triangle of a Fortran-ordered float64 square array
    in place with the blocked one-stage algorithm (``UPLO='L'``); returns
    the diagonal and off-diagonal ``(d, e)`` of the tridiagonal."""
    n = _square_order("dsytrd", a)
    n_c, info, query = _INTEGER(n), _INTEGER(0), _INTEGER(-1)
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    work = np.empty(1)
    _SYTRD(b"L", n_c, a, n_c, d, e, tau, work, query, info, 1)
    _check("dsytrd", info)
    lwork = int(work[0])
    _SYTRD(b"L", n_c, a, n_c, d, e, tau, np.empty(lwork), _INTEGER(lwork),
           info, 1)
    _check("dsytrd", info)
    return d, e


def dsytrd_2stage(a):
    """Reduce the lower triangle of a Fortran-ordered float64 square array
    in place (``VECT='N'``, ``UPLO='L'``); returns the diagonal and
    off-diagonal ``(d, e)`` of the tridiagonal."""
    n = _square_order("dsytrd_2stage", a)
    n_c, info, query = _INTEGER(n), _INTEGER(0), _INTEGER(-1)
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    hous2, work = np.empty(1), np.empty(1)
    _SYTRD_2STAGE(b"N", b"L", n_c, a, n_c, d, e, tau, hous2, query, work,
                  query, info, 1, 1)
    _check("dsytrd_2stage", info)
    lhous2, lwork = int(hous2[0]), int(work[0])
    hous2, work = np.empty(lhous2), np.empty(lwork)
    _SYTRD_2STAGE(b"N", b"L", n_c, a, n_c, d, e, tau, hous2,
                  _INTEGER(lhous2), work, _INTEGER(lwork), info, 1, 1)
    _check("dsytrd_2stage", info)
    return d, e


def dsytrd_leading(a, depth: int):
    """The leading ``depth`` diagonal and ``depth - 1`` off-diagonal entries
    ``(d, e)`` of the tridiagonal ``dsytrd`` makes of the lower triangle of
    a Fortran-ordered float64 square array, reducing in place only its
    columns 0 .. depth-2.

    This is ``dsytrd``'s own blocked loop (``UPLO='L'``), stopped early: a
    ``dlatrd`` panel, a ``dsyr2k`` update of the trailing lower triangle,
    the panel's diagonal.  The panel width is ``dsytrd``'s, from its
    workspace query (``LWORK = n * nb``); the last panel is narrowed to end
    at column depth-2.  Where ``dsytrd`` itself runs blocked, ``e`` and
    ``d[:depth-1]`` therefore equal the prefix of its result bit for bit;
    ``d[depth-1]`` comes from a narrower trailing update and agrees to
    rounding.  Panels are passed as raw addresses with ``LDA = n``, so the
    array is checked to be one contiguous Fortran block first.
    """
    n = _square_order("dsytrd_leading", a)
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.f_contiguous):
        raise DomainError("dsytrd_leading needs a Fortran-ordered float64 "
                          "array")
    if not (isinstance(depth, (int, np.integer)) and 1 <= depth <= n):
        raise DomainError(f"depth must be an integer in 1..{n}, got {depth}")
    columns = depth - 1
    if not columns:
        return a.diagonal()[:1].copy(), np.empty(0)
    n_c, info = _INTEGER(n), _INTEGER(0)
    e, tau, work = np.empty(columns), np.empty(columns), np.empty(1)
    _SYTRD(b"L", n_c, a, n_c, np.empty(n), e, tau, work, _INTEGER(-1), info,
           1)
    _check("dsytrd", info)
    nb = int(work[0]) // n
    # W is n rows by nb (LDW = n), as dsytrd lays out its WORK
    panel = np.empty(n * nb)
    minus_one, one = ctypes.c_double(-1.0), ctypes.c_double(1.0)

    def at(row, col):
        return a.ctypes.data + (row + col * n) * a.itemsize

    for i in range(0, columns, nb):
        width = min(nb, columns - i)
        _LATRD(b"L", _INTEGER(n - i), _INTEGER(width), at(i, i), n_c, e[i:],
               tau[i:], panel, n_c, 1)
        # A := A - V W^T - W V^T on the trailing lower triangle
        _SYR2K(b"L", b"N", _INTEGER(n - i - width), _INTEGER(width),
               minus_one, at(i + width, i), n_c, panel[width:], n_c, one,
               at(i + width, i + width), n_c, 1, 1)
    return a.diagonal()[:depth].copy(), e
