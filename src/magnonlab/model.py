"""Long-range XXZ chain: couplings, magnon-sector bases, Hamiltonians.

The chain Hamiltonian is

    H = (1/3) sum_{i<j} J_ij (sx_i sx_j + sy_i sy_j + delta * sz_i sz_j)

with J_ij = J / d(i,j)^alpha, where d is the plain distance on an open
chain or the minimal cyclic distance on a ring.  Pauli conventions: the
computational basis is the z basis, bit 1 marks a flipped spin (magnon)
on the all-down background, and site j maps to bit (1 << j) with 0-based
internal indexing (I/O uses 1-based site labels).

``SectorBasis`` alone maps a configuration to a row (``index_of``, the colex rank
sum_k C(s_k, k+1) of its ascending sites). ``sector_hamiltonian`` writes each
sector straight to CSR: a row's hops move one of its n magnons to one of its
L-n empty sites, so every row holds n(L-n) + 1 entries with the diagonal.
Only ``_reflection_projections`` densifies (for ``SectorOperator.eigensystem``
through ``_reflection_blocks``, and for the pulse blocks), and only the halves
that the reversal j -> L-1-j leaves even and odd: the couplings depend on
|i-j| (or its cyclic minimum), so every sector Hamiltonian commutes with that
reversal and is block diagonal in its eigenbasis. The eigensystem is kept in
that block form, one (Q, eigenvalues, V) triple per block with Q the sparse
isometry onto the block. It is the only eigen-format of a sector: no
(dim, dim) eigenvector matrix is ever formed.
The full 2^L space shares one occupation table, ``full_space_bits``.
"""

import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

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
        if not 0 < self.alpha < np.inf:  # also rejects NaN
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
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
    """Basis of the n-magnon sector: ascending site rows in colex (bitmask) order."""

    L: int
    n: int
    occupations: np.ndarray = field(repr=False)  # (dim, n) ascending sites
    binomials: np.ndarray = field(repr=False)  # (L+1, n+2) C(t, j), see enumerate_sector

    @property
    def dim(self):
        return len(self.occupations)

    def index_of(self, occupations):
        """Rows of ascending site rows (..., n), their colex ranks; an int for one row.

        Raises KeyError if any row is not in the basis: each rank is read back.
        """
        occ = np.asarray(occupations)
        if occ.shape[-1:] != (self.n,):
            raise KeyError(f"rows of shape {occ.shape} do not hold {self.n} sites")
        ranks = self.binomials.take(occ * (self.n + 2) + np.arange(1, self.n + 1), mode="clip")
        rows = np.minimum(ranks.sum(axis=-1), self.dim - 1)
        missing = np.any(self.occupations[rows] != occ, axis=-1)
        if missing.any():
            raise KeyError(f"sites {occ[missing][0].tolist()} not in the {self.n}-magnon basis")
        return int(rows) if rows.ndim == 0 else rows

    @cached_property
    def bits(self):
        """(dim, L) uint8 occupation table, 1 = magnon; row order of the basis."""
        bits = np.zeros((self.dim, self.L), dtype=np.uint8)
        bits[np.arange(self.dim)[:, None], self.occupations] = 1
        bits.flags.writeable = False  # one cached table serves every caller
        return bits

    @cached_property
    def masks(self):
        """(dim,) int64 full-space row (bit j = site j) of each row."""
        _check_full_space(self.L)
        masks = np.left_shift(1, self.occupations).sum(axis=1)
        masks.flags.writeable = False
        return masks

    @cached_property
    def mirror(self):
        """Row of each row's reversed configuration (site j -> L-1-j)."""
        rows = self.index_of(self.L - 1 - self.occupations[:, ::-1])
        rows.flags.writeable = False
        return rows


SECTOR_MAX_BYTES = 1 << 30  # predicted sector build peak, see enumerate_sector


@lru_cache(maxsize=32)
def enumerate_sector(L, n):
    """SectorBasis for n magnons on L sites, dim = binomial(L, n).

    Cached per (L, n): every caller shares one basis with read-only arrays.
    Every sector path starts here, so the size guard runs before any allocation.
    """
    if not 0 <= n <= L:
        raise ValueError(f"magnon number n={n} out of range for L={L}")
    # the tracemalloc peak of sector_hamiltonian, the larger of two moments: the
    # data gather (data, columns, gathered couplings: 8 bytes each per hop; 9 per
    # row and site; the (L, L) couplings) and the hop ranks (columns and a 1-byte
    # mask per hop; prefix tables of 49 bytes per row and magnon, 25 per row and
    # empty site; numpy's 8192-element buffers for three int64 operands). Within
    # 4 % from dim 1000 up: (L, n) = (17, 5), (20, 6|10), (150, 1|2), (40|70|100, L-2)
    dim, hops = comb(L, n), n * (L - n)
    peak = max(dim * (24 * hops + 9 * L + 24) + 8 * L * L,
               dim * (9 * hops + 49 * n + 25 * (L - n) + 24) + 8192 * 24)
    if peak > SECTOR_MAX_BYTES:
        raise ValueError(
            f"the {n}-magnon sector of L={L} has dim {dim}, and building its "
            f"Hamiltonian peaks at about {peak} bytes; sectors are limited to "
            f"{SECTOR_MAX_BYTES} bytes")
    # C(t, j) where t - j <= L - n, all that ranks and hops read, else 0: no overflow
    binom = np.array([[comb(t, j) * (t - j <= L - n) for j in range(n + 2)] for t in range(L + 1)])
    occs = np.zeros((1, 0), dtype=np.int64)
    for k in range(n):  # (k+1)-site rows with top t: the first C(t, k) k-site rows, t
        top = np.repeat(np.arange(k, L - n + k + 1), binom[k:L - n + k + 1, k])
        occs = np.column_stack([occs[np.arange(len(top)) - binom[top, k + 1]], top])
    occs.flags.writeable = binom.flags.writeable = False
    return SectorBasis(L=L, n=n, occupations=occs, binomials=binom)


# SectorOperator.spectral_interval: power steps toward the top eigenvector, and
# the relative widening that covers roundoff in its bounds (unwidened, the
# worst slack against eigvalsh over every sector at L <= 12, both boundaries,
# Delta in {-2, 0, 0.7, 3} and alpha in {0.5, 1.4, 3} was -1.0e-15 of the
# largest |eigenvalue|)
INTERVAL_POWER_STEPS = 20
INTERVAL_PAD = 1e-12


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


def gershgorin_interval(mat):
    """(a, b): the Gershgorin discs of a real symmetric sparse mat put its
    spectrum in [b - a, b + a]."""
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    return float(hi - lo) / 2, float(hi + lo) / 2


class SectorOperator:
    """Hamiltonian restricted to one magnon-number sector.

    Wraps a real symmetric CSR matrix and caches its eigendecomposition
    for repeated exact propagation. The matrix must commute with the site
    reversal of its basis, as every ``sector_hamiltonian`` does, and
    ``spectral_interval`` bounds it as the ``sector_hamiltonian`` of params.
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

    @cached_property
    def spectral_interval(self):
        """(a, b) with the spectrum in [b - a, b + a], cached.

        H = D + X for the zz diagonal D and the compression X, onto
        hard-core states, of n free bosons hopping with t = (2/3) J_ij, the
        (L, L) one-magnon hop table. So lambda_min(H) >= min D +
        n lambda_min(t) (Weyl's inequality and Cauchy interlacing). Every
        hop is >= 0 (J > 0), so for any positive x, lambda_max(H) <=
        max_i (Hx)_i / x_i (Collatz-Wielandt); INTERVAL_POWER_STEPS power
        steps on H - lo from x = 1 make that bound tight. Both are
        intersected with Gershgorin and widened by a relative INTERVAL_PAD
        for roundoff.
        """
        a, b = gershgorin_interval(self.matrix)
        diag = self.matrix.diagonal()
        t_min = np.linalg.eigvalsh(2.0 / 3.0 * coupling_matrix(self.params))[0]
        lo = max(b - a, diag.min() + self.basis.n * t_min)
        x = np.ones(self.dim)
        for _ in range(INTERVAL_POWER_STEPS):
            y = self.matrix @ x - lo * x
            if not np.all(y > 0):  # H = lo: the vacuum sector has no hops
                break
            x = y / y.max()
        hi = min(b + a, np.max((self.matrix @ x) / x))
        pad = INTERVAL_PAD * max(abs(lo), abs(hi))
        return float(hi - lo) / 2 + pad, float(hi + lo) / 2

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
                    self._eig = _reflection_blocks(
                        self.matrix, *_reflection_isometry(self.basis.mirror))
        return self._eig


def _reflection_blocks(H, q_even, q_odd):
    """((q_even, evals, V), (q_odd, evals, V)), V from a dense eigh of q^T H q.
    Raises ValueError if the sparse H couples the blocks beyond 1e-12 of its norm."""
    return tuple((q, *np.linalg.eigh(h))
                 for q, h in zip((q_even, q_odd), _reflection_projections(H, q_even, q_odd)))


def _reflection_projections(H, q_even, q_odd):
    """(q_even^T H q_even, q_odd^T H q_odd) as dense arrays. Raises ValueError
    if the sparse H couples the blocks beyond 1e-12 of its norm."""
    h_even = H @ q_even
    coupling = np.abs((q_odd.T @ h_even).data).max(initial=0.0)
    scale = abs(H).sum(axis=1).max()  # the row-sum norm bounds |H|
    if coupling > 1e-12 * scale:
        raise ValueError(
            f"matrix couples the reflection-even and -odd blocks by "
            f"{coupling:.3g} (norm {scale:.3g}): it breaks the site reversal"
        )
    return tuple((q.T @ hq).toarray() for q, hq in ((q_even, h_even), (q_odd, H @ q_odd)))


def zz_energies(bits, J):
    """(1/2) sum_ij s_i J_ij s_j with s = 2 bits - 1, one value per row of bits."""
    s = 2.0 * bits - 1.0
    return 0.5 * np.einsum("ai,ij,aj->a", s, J, s)  # J has zero diagonal


def sector_hamiltonian(params, n):
    """The n-magnon sector Hamiltonian, always as a CSR ``SectorOperator``.

    Off-diagonal (2/3) J_ij moves a magnon from an occupied site i to an
    empty site j (from sx sx + sy sy = 2(s+ s- + s- s+)); the diagonal is
    (delta/3) times ``zz_energies``. Moving magnon a to an empty site e shifts
    only the magnons between: down (C(s_k, k+1) -> C(s_k, k)) if e lies above
    s_a, up (to C(s_k, k+2)) if below; row-wise prefix sums give the new rank.
    """
    basis = enumerate_sector(params.L, n)
    L, dim, occ, binom = params.L, basis.dim, basis.occupations, basis.binomials
    empty = np.flatnonzero(basis.bits == 0).reshape(dim, L - n) % L
    mid = binom[occ, np.arange(1, n + 1)]
    down, up = np.zeros((2, dim, n + 1), dtype=np.int64)
    np.cumsum(mid - binom[occ, np.arange(n)], axis=1, out=down[:, 1:])
    np.cumsum(binom[occ, np.arange(2, n + 2)] - mid, axis=1, out=up[:, 1:])
    c = empty - np.arange(L - n)  # magnons below each empty site
    above, below = binom[empty, c], binom[empty, c + 1]  # where e takes position c-1 or c
    above -= np.take_along_axis(down, c, axis=1)
    below -= np.take_along_axis(up, c, axis=1)
    del c  # before the largest array, the columns
    indices = np.empty((dim, n * (L - n) + 1), dtype=np.int64)  # hops (a, e), diagonal
    indices[:, -1] = np.arange(dim)
    left = indices[:, -1:] - mid  # the rank without magnon a
    hops = indices[:, :-1].reshape(dim, n, L - n)
    np.add((left + down[:, 1:])[:, :, None], above[:, None], out=hops)
    np.add((left + up[:, :-1])[:, :, None], below[:, None], out=hops,
           where=empty[:, None] < occ[:, :, None])
    del mid, down, up, above, below, left  # before the data and its gather
    J = coupling_matrix(params)
    diagonal = params.delta / 3.0 * zz_energies(basis.bits, J)
    data = np.empty(indices.shape)
    np.multiply(J[occ[:, :, None], empty[:, None]].reshape(dim, -1), 2.0 / 3.0,
                out=data[:, :-1])
    data[:, -1] = diagonal
    indptr = np.arange(0, data.size + 1, data.shape[1])  # n(L-n) + 1 per row
    H = sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(dim, dim))
    H.sort_indices()  # canonical CSR: each row's columns ascending
    return SectorOperator(basis, H, params)


FULL_SPACE_MAX_L = 24  # 2^24 amplitudes; beyond this use sector methods


def _check_full_space(L):
    # (8 << L) + (1 << 20) bytes is the tracemalloc peak of probes._ising_sectors,
    # within 7 % from L=16 to 22: the real 2^L table that probes._ising_prep
    # transforms in place (8 bytes per amplitude) and about 1 MiB besides (a
    # block of 2^14 energies and their complex phases, numpy's casting buffer,
    # the half-chain tables and the sector rows kept)
    if L > FULL_SPACE_MAX_L:
        raise ValueError(
            f"full-space operators hold a (2^{L}, {L}) uint8 occupation table "
            f"of {L << L} bytes at L={L}, and the Ising preparation a real 2^{L} "
            f"table that its Walsh-Hadamard transform works on in place, about "
            f"{(8 << L) + (1 << 20)} bytes; they are limited to L <= {FULL_SPACE_MAX_L}"
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
    if len(set(sites)) < len(sites):
        raise ValueError(f"sites {sites_1based} name a site twice; a site holds one magnon")
    n = len(sites)
    basis = enumerate_sector(params.L, n)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index_of(sites)] = 1.0
    return StateVector(vec, ("sector", params.L, n))
