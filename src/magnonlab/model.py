"""Long-range XXZ chain: couplings, magnon-sector bases, Hamiltonians.

The chain Hamiltonian is

    H = (1/3) sum_{i<j} J_ij (sx_i sx_j + sy_i sy_j + delta * sz_i sz_j)

with J_ij = J / d(i,j)^alpha, where d is the plain distance on an open
chain or the minimal cyclic distance on a ring.  Pauli conventions: the
computational basis is the z basis, bit 1 marks a flipped spin (magnon)
on the all-down background, and site j maps to bit (1 << j) with 0-based
internal indexing (I/O uses 1-based site labels).

``SectorBasis`` alone maps a configuration to a row (``index_of``, one
``searchsorted`` on its sorted masks). ``sector_hamiltonian`` builds every
sector as CSR from its ``bits`` table with no loop over configurations.
Only ``SectorOperator.eigensystem`` densifies, and only the two halves of
the sector that the site reversal j -> L-1-j leaves even and odd: the
couplings depend on |i-j| (or its cyclic minimum), so every sector
Hamiltonian commutes with that reversal and is block diagonal in its
eigenbasis. The eigensystem is kept in that block form, one
(Q, eigenvalues, V) triple per block with Q the sparse isometry onto the
block. It is the only eigen-format of a sector: no (dim, dim)
eigenvector matrix is ever formed.
The full 2^L space shares one occupation table, ``full_space_bits``.
"""

import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class ModelParams:
    """Chain parameters. J in arbitrary rate units, times in 1/J."""

    L: int
    alpha: float = 1.4
    delta: float = 0.0
    J: float = 1.0
    boundary: str = "open"

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.J < np.inf:  # also rejects NaN
            raise ValueError(f"J must be finite and positive, got {self.J}")
        if self.boundary not in ("open", "ring"):
            raise ValueError(f"boundary must be 'open' or 'ring', got {self.boundary!r}")


def coupling_matrix(params):
    """Symmetric (L, L) coupling matrix J_ij = J / d(i,j)^alpha, zero diagonal."""
    L = params.L
    idx = np.arange(L)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    if params.boundary == "ring":
        dist = np.minimum(dist, L - dist)
    with np.errstate(divide="ignore"):
        J = params.J / dist**params.alpha
    np.fill_diagonal(J, 0.0)
    return J


def vacuum_energy(params):
    """Energy of the zero-magnon (all-down) state: (delta/3) sum_{i<j} J_ij."""
    J = coupling_matrix(params)
    return params.delta / 3.0 * np.triu(J, 1).sum()


@dataclass(frozen=True)
class SectorBasis:
    """Basis of the n-magnon sector: lexicographic site tuples as bitmasks."""

    L: int
    n: int
    masks: np.ndarray = field(repr=False)
    occupations: np.ndarray = field(repr=False)  # (dim, n) sorted site indices

    @property
    def dim(self):
        return len(self.masks)

    def index_of(self, masks):
        """Rows of a mask or an array of masks; an int for a scalar.

        Raises KeyError if any mask is not in the basis.
        """
        masks = np.asarray(masks)
        rows = np.minimum(np.searchsorted(self.masks, masks), self.dim - 1)
        missing = self.masks[rows] != masks
        if np.any(missing):
            mask = int(masks[missing][0])
            raise KeyError(f"mask {mask:#x} not in {self.n}-magnon basis")
        return int(rows) if rows.ndim == 0 else rows

    @cached_property
    def bits(self):
        """(dim, L) uint8 occupation table, 1 = magnon; row order of masks."""
        bits = np.zeros((self.dim, self.L), dtype=np.uint8)
        bits[np.arange(self.dim)[:, None], self.occupations] = 1
        bits.flags.writeable = False  # one cached table serves every caller
        return bits

    @cached_property
    def mirror(self):
        """Row of each row's reversed configuration (site j -> L-1-j)."""
        rows = self.index_of(_pack(self.L - 1 - self.occupations, self.L))
        rows.flags.writeable = False
        return rows


def _pack(occs, L):
    """Bitmask of each row of site indices: int64 up to 62 sites, else Python ints."""
    if L <= 62:
        return (1 << occs).sum(axis=1)
    # beyond 62 sites the masks outgrow int64
    return np.array([sum(1 << int(i) for i in row) for row in occs], dtype=object)


@lru_cache(maxsize=32)
def enumerate_sector(L, n):
    """SectorBasis for n magnons on L sites, dim = binomial(L, n).

    Cached per (L, n): every caller shares one basis with read-only arrays.
    """
    if not 0 <= n <= L:
        raise ValueError(f"magnon number n={n} out of range for L={L}")
    occs = np.array(list(combinations(range(L), n)), dtype=np.int64)
    masks = _pack(occs, L)
    order = np.argsort(masks, kind="stable")
    masks, occs = masks[order], occs[order]
    masks.flags.writeable = occs.flags.writeable = False
    return SectorBasis(L=L, n=n, masks=masks, occupations=occs)


def _reflection_isometry(mirror):
    """Sparse (Q_even, Q_odd): orthonormal columns spanning the two
    eigenspaces of the row permutation r -> mirror[r] (an involution).

    A fixed row r gives the even column |r>; each pair r < mirror[r] gives
    the even column (|r> + |mirror r>)/sqrt(2) and the odd column
    (|r> - |mirror r>)/sqrt(2). Columns follow their smaller row.
    """
    rows = np.arange(len(mirror))

    def columns(reps, sign):
        # a fixed row enters twice at 1/2, and the CSR build sums the two
        w = np.where(mirror[reps] == reps, 0.5, np.sqrt(0.5))
        col = np.arange(len(reps))
        return sparse.csr_matrix(
            (np.concatenate([w, sign * w]),
             (np.concatenate([reps, mirror[reps]]), np.concatenate([col, col]))),
            shape=(len(rows), len(reps)))

    return columns(rows[rows <= mirror], 1.0), columns(rows[rows < mirror], -1.0)


class SectorOperator:
    """Hamiltonian restricted to one magnon-number sector.

    Wraps a real symmetric CSR matrix and caches its eigendecomposition
    for repeated exact propagation. The matrix must commute with the site
    reversal of its basis, as every ``sector_hamiltonian`` does.
    """

    def __init__(self, basis, matrix, params):
        self.basis = basis
        self.matrix = matrix
        self.params = params
        self._eig = None
        self._eig_lock = threading.Lock()  # one diagonalization per sector

    @property
    def dim(self):
        return self.basis.dim

    def dense(self):
        return self.matrix.toarray()

    def eigensystem(self):
        """Cached reflection blocks ((Q, evals, V) even, (Q, evals, V) odd).

        Q is the sparse (dim, d) isometry onto the block, evals ascend and
        V is the real (d, d) eigenvector matrix of Q^T H Q, so Q V holds
        eigenvectors of the sector that are even or odd under the site
        reversal. Raises ValueError if the matrix couples the two blocks
        beyond roundoff, i.e. breaks the reversal symmetry.
        """
        if self._eig is None:
            with self._eig_lock:
                if self._eig is None:
                    self._eig = self._diagonalize()
        return self._eig

    def _diagonalize(self):
        H = self.matrix
        q_even, q_odd = _reflection_isometry(self.basis.mirror)
        h_even = H @ q_even
        coupling = np.abs((q_odd.T @ h_even).data).max(initial=0.0)
        scale = abs(H).sum(axis=1).max()  # the row-sum norm bounds |H|
        if coupling > 1e-12 * scale:
            raise ValueError(
                f"sector matrix couples the reflection-even and -odd blocks by "
                f"{coupling:.3g} (norm {scale:.3g}): it breaks the site reversal"
            )
        return tuple((q, *np.linalg.eigh((q.T @ hq).toarray()))
                     for q, hq in ((q_even, h_even), (q_odd, H @ q_odd)))


def zz_energies(bits, J):
    """(1/2) sum_ij s_i J_ij s_j with s = 2 bits - 1, one value per row of bits."""
    s = 2.0 * bits - 1.0
    return 0.5 * np.einsum("ai,ij,aj->a", s, J, s)  # J has zero diagonal


def sector_hamiltonian(params, n):
    """The n-magnon sector Hamiltonian, always as a CSR ``SectorOperator``.

    Off-diagonal (2/3) J_ij moves one magnon between sites i and j (from
    sx sx + sy sy = 2(s+ s- + s- s+)); the diagonal is (delta/3) times
    ``zz_energies``. A row hops across the pair (i, j) exactly when one of
    the two sites holds a magnon, so every hop, in both directions, is
    read off the bits table at once.
    """
    basis = enumerate_sector(params.L, n)
    J = coupling_matrix(params)
    i, j = np.triu_indices(params.L, 1)
    by_site = basis.bits.T.copy()  # (L, dim): each pair compares two whole rows
    pair, rows = np.nonzero(by_site[i] != by_site[j])
    one = np.ones(1, dtype=basis.masks.dtype)  # object masks give Python ints
    cols = basis.index_of(basis.masks[rows] ^ ((one << i) | (one << j))[pair])
    diag = np.arange(basis.dim)
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    vals = np.concatenate([2.0 / 3.0 * J[i, j][pair],
                           params.delta / 3.0 * zz_energies(basis.bits, J)])
    H = sparse.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return SectorOperator(basis, H, params)


FULL_SPACE_MAX_L = 24  # 2^24 amplitudes; beyond this use sector methods


def _check_full_space(L):
    if L > FULL_SPACE_MAX_L:
        raise ValueError(
            f"full-space operators hold a (2^{L}, {L}) uint8 occupation table "
            f"of {L << L} bytes at L={L}, and the Ising diagonal (zz_energies) "
            f"builds a float64 sign table of {8 * L << L} bytes from it; they "
            f"are limited to L <= {FULL_SPACE_MAX_L}"
        )


def full_space_bits(L):
    """(2^L, L) uint8 occupation table of the full space: row m holds the bits of m."""
    _check_full_space(L)
    # the four little-endian bytes of each index, unpacked low bit first; the
    # copy drops the 32 - L unused columns
    masks = np.arange(1 << L, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(masks, axis=1, bitorder="little")[:, :L].copy()


def build_full_hamiltonian(params):
    """The pulse simulator's H_XX = sum_{i<j} J_ij sx_i sx_j on 2^L states, as CSR.

    Row m holds J_ij in column m ^ (1 << i | 1 << j) for every pair, in pair
    order (unsorted), so one (2^L, n_pairs) table is the whole index array.
    """
    L = params.L
    _check_full_space(L)
    i, j = np.triu_indices(L, 1)
    cols = np.arange(1 << L)[:, None] ^ ((1 << i) | (1 << j))
    vals = np.tile(coupling_matrix(params)[i, j], 1 << L)
    indptr = np.arange(0, cols.size + 1, len(i))
    return sparse.csr_matrix((vals, cols.ravel(), indptr), shape=(1 << L, 1 << L))


@dataclass
class StateVector:
    """Normalized state with an explicit basis tag.

    basis: ('full', L) or ('sector', L, n); data is complex128.
    """

    data: np.ndarray
    basis: tuple

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)

    @property
    def L(self):
        return self.basis[1]

    def norm(self):
        return float(np.linalg.norm(self.data))

    def overlap(self, other):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        return complex(np.vdot(self.data, other.data))


def sector_state_from_sites(params, sites_1based):
    """Product state with magnons at the given 1-based sites, as a sector vector."""
    sites = sorted(s - 1 for s in sites_1based)
    if any(s < 0 or s >= params.L for s in sites):
        raise ValueError(f"sites {sites_1based} outside chain of length {params.L}")
    n = len(sites)
    basis = enumerate_sector(params.L, n)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index_of(sum(1 << s for s in sites))] = 1.0
    return StateVector(vec, ("sector", params.L, n))
