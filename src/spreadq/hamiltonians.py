"""Explicit quench Hamiltonians: GOE matrices and a disordered spin chain.

GOE convention: ``H = (A + A^T)/2`` with ``A`` i.i.d. standard normal, so the
off-diagonal variance is 1/2 and the diagonal variance 1.  The semicircle
radius is then ``sqrt(2 N)``.

Spin chain: ``H = H0 + g V`` on the Sz = 0 sector of ``L`` spin-1/2 sites with
periodic boundary conditions.  ``H0 = sum_j h_j s^z_j`` carries the on-site
disorder (``h_j`` uniform on ``[-h, h]``); ``V = sum_<ij> s_i . s_j`` over
nearest-neighbour bonds contributes ``+-1/4`` zz diagonal terms and ``1/2``
flip-flop elements between states differing by one adjacent exchange.
Spin-1/2 operators throughout (``s^z`` eigenvalues ``+-1/2``), not Pauli
matrices.

Basis layout: all bitmasks with exactly ``L/2`` set bits, sorted ascending as
integers; site 1 is the least significant bit.  The domain wall has sites
``1..L/2`` up, i.e. mask ``(1 << (L/2)) - 1``.

Randomness: every draw comes from ``numpy.random.Philox`` keyed with
``(seed, stream)``.  A fixed ``(seed, stream)`` pair reproduces the same
matrix bit-for-bit regardless of how many realizations run concurrently;
ensemble commands enumerate ``stream`` as a plain counter.  ``numpy.random``
is first reached when a draw is made, so importing this module (and every
command that draws nothing) does not import it.

Symmetry: every matrix is checked for ``H == H.T`` bit-exactly by
``is_symmetric``, which compares each ``SYMMETRY_TILE`` square tile of the
lower triangle with the transpose of its upper partner.  Both tiles of a
pair are read along contiguous rows and fit in cache together, so the check
never scans H in transposed (strided) order.  The same tile pairs
(``tile_pairs``) let ``symmetrize_in_place`` average H with its transpose
without a second n x n array, for ``sample_goe``.

Quench states are basis labels: ``domain_wall_index`` is the index that
``householder_hessenberg`` starts from, and ``domain_wall_state`` the same
state as a unit vector.

Memory: each builder returns one dense n x n float64 array and allocates no
second one, so a member that is reduced in place
(``householder_hessenberg(..., overwrite_h=True)``) holds n^2 doubles.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, DomainError

MAX_CHAIN_SITES = 20
# edge of the square tiles that is_symmetric compares pairwise
SYMMETRY_TILE = 128


def _generator(seed: int, stream: int):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def tile_pairs(n: int):
    """The ``(rows, cols)`` slices of each ``SYMMETRY_TILE`` square tile of
    the lower triangle of an order-``n`` matrix, row band by row band; its
    upper partner is ``[cols, rows]``, and a diagonal tile is its own."""
    for lo in range(0, n, SYMMETRY_TILE):
        rows = slice(lo, lo + SYMMETRY_TILE)
        for left in range(0, lo + 1, SYMMETRY_TILE):
            yield rows, slice(left, left + SYMMETRY_TILE)


def symmetrize_in_place(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, overwritten with ``(matrix + matrix.T) / 2`` bit for bit:
    each tile pair of ``tile_pairs`` is replaced by its mean, so at most
    one tile-sized temporary is alive at a time."""
    for rows, cols in tile_pairs(matrix.shape[0]):
        # x + y == y + x in floating point: both halves get the same mean.
        # Arithmetic on a contiguous copy: on strided views numpy would
        # allocate further tile-sized temporaries
        mean = matrix[cols, rows].T.copy()
        mean += matrix[rows, cols]
        mean /= 2.0
        matrix[rows, cols] = mean
        matrix[cols, rows] = mean.T
        # so that no two tiles are alive at once
        del mean
    return matrix


def is_symmetric(matrix: np.ndarray) -> bool:
    """``np.array_equal(matrix, matrix.T)``, one tile pair at a time.

    Exact: each entry is compared with ``==`` against its mirror, so a NaN
    anywhere, the diagonal included, makes the matrix asymmetric, and a
    non-square matrix is never symmetric.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return all((matrix[rows, cols] == matrix[cols, rows].T).all()
               for rows, cols in tile_pairs(matrix.shape[0]))


@dataclass(frozen=True)
class SpinChainSpec:
    """Disordered periodic Heisenberg chain restricted to Sz = 0."""

    L: int
    h: float
    g: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2 \
                or self.L % 2:
            raise DomainError(f"L must be an even integer >= 2, got {self.L}")
        if self.L > MAX_CHAIN_SITES:
            raise DomainError(
                f"L={self.L} exceeds the dense-sector guard "
                f"(L <= {MAX_CHAIN_SITES})")
        if not (math.isfinite(self.h) and self.h >= 0):
            raise DomainError(f"h must be finite and >= 0, got {self.h}")
        if not math.isfinite(self.g):
            raise DomainError(f"g must be finite, got {self.g}")

    @property
    def dimension(self) -> int:
        return math.comb(self.L, self.L // 2)


@dataclass
class SectorHamiltonian:
    """Dense real Hamiltonian ``H``, square and symmetric bit-exactly
    (``is_symmetric``); otherwise construction raises ``DomainError``."""

    H: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise DomainError(f"H must be square, got shape {self.H.shape}")
        if not is_symmetric(self.H):
            raise DomainError("H must be symmetric bit-exactly")


@dataclass
class StateVector:
    """Unit-norm state in a sector basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes)
        if self.amplitudes.ndim != 1:
            raise DomainError("amplitudes must be one-dimensional")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(
                f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


def sample_goe(n: int, seed: int, stream: int = 0) -> SectorHamiltonian:
    """Draw one GOE matrix: off-diagonal variance 1/2, diagonal variance 1.

    The matrix is ``(A + A^T)/2`` bit for bit, formed in the one n^2 array
    that ``A`` is drawn into: each tile pair of ``tile_pairs`` is replaced
    by its mean, so no second n^2 array is ever allocated.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    gen = _generator(seed, stream)
    return SectorHamiltonian(symmetrize_in_place(gen.standard_normal((n, n))))


def _popcount(masks: np.ndarray) -> np.ndarray:
    v = masks.astype(np.uint32)
    v = v - ((v >> 1) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> 2) & np.uint32(0x33333333))
    v = (v + (v >> 4)) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> 24).astype(np.int64)


def sector_basis(L: int) -> np.ndarray:
    """Ascending bitmasks with exactly L/2 set bits (site 1 = LSB)."""
    masks = np.arange(1 << L, dtype=np.int64)
    return masks[_popcount(masks) == L // 2]


def _chain_bonds(L: int):
    # periodic ring; for L=2 the wrap-around duplicates the only bond
    bonds = [(i, (i + 1) % L) for i in range(L)]
    return bonds[:1] if L == 2 else bonds


def build_spin_sector(spec: SpinChainSpec, stream: int = 0) \
        -> SectorHamiltonian:
    """Assemble H = H0 + g V on the Sz = 0 sector of the chain.

    The fields h_1..h_L are the one draw ``uniform(-h, h, L)`` of
    ``Philox(key=[seed, stream])``.  The assembly is checked once, by
    ``SectorHamiltonian``, and an asymmetric result raises ``AssemblyError``.
    """
    L = spec.L
    basis = sector_basis(L)
    dim = basis.size
    gen = _generator(spec.seed, stream)
    fields_h = gen.uniform(-spec.h, spec.h, size=L)

    ham = np.zeros((dim, dim))
    diag = np.zeros(dim)
    bits = [(basis >> site) & 1 for site in range(L)]
    for site in range(L):
        diag += fields_h[site] * (bits[site] - 0.5)
    for i, j in _chain_bonds(L):
        aligned = bits[i] == bits[j]
        diag += spec.g * np.where(aligned, 0.25, -0.25)
        rows = np.nonzero(~aligned)[0]
        partners = basis[rows] ^ ((1 << i) | (1 << j))
        cols = np.searchsorted(basis, partners)
        ham[rows, cols] += spec.g * 0.5
    ham[np.arange(dim), np.arange(dim)] = diag

    try:
        return SectorHamiltonian(ham)
    except DomainError:
        # square by construction: only the symmetry check can fail
        raise AssemblyError(
            "sector assembly produced an asymmetric matrix") from None


def domain_wall_index(spec: SpinChainSpec) -> int:
    """Index in ``sector_basis`` of the label with sites 1..L/2 up, rest
    down."""
    basis = sector_basis(spec.L)
    mask = (1 << (spec.L // 2)) - 1
    idx = int(np.searchsorted(basis, mask))
    if idx >= basis.size or basis[idx] != mask:
        raise AssemblyError(
            f"domain-wall mask {mask:#x} missing from the sector basis")
    return idx


def domain_wall_state(spec: SpinChainSpec) -> StateVector:
    """Unit vector on ``domain_wall_index(spec)``."""
    amplitudes = np.zeros(spec.dimension)
    amplitudes[domain_wall_index(spec)] = 1.0
    return StateVector(amplitudes)
