"""Long-range XXZ chain: couplings, magnon-sector bases, Hamiltonians.

The chain Hamiltonian is

    H = (1/3) sum_{i<j} J_ij (sx_i sx_j + sy_i sy_j + delta * sz_i sz_j)

with J_ij = J / d(i,j)^alpha, where d is the plain distance on an open
chain or the minimal cyclic distance on a ring.  Pauli conventions: the
computational basis is the z basis, bit 1 marks a flipped spin (magnon)
on the all-down background, and site j maps to bit (1 << j) with 0-based
internal indexing (I/O uses 1-based site labels).
"""

from dataclasses import dataclass, field
from functools import cached_property
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

    def index_of(self, mask):
        i = int(np.searchsorted(self.masks, mask))
        if i >= len(self.masks) or self.masks[i] != mask:
            raise KeyError(f"mask {mask:#x} not in {self.n}-magnon basis")
        return i

    @cached_property
    def bits(self):
        """(dim, L) uint8 occupation table, 1 = magnon; row order of masks."""
        bits = np.zeros((self.dim, self.L), dtype=np.uint8)
        bits[np.arange(self.dim)[:, None], self.occupations] = 1
        bits.flags.writeable = False  # one cached table serves every caller
        return bits


def enumerate_sector(L, n):
    """SectorBasis for n magnons on L sites, dim = binomial(L, n)."""
    if not 0 <= n <= L:
        raise ValueError(f"magnon number n={n} out of range for L={L}")
    if n == 0:
        return SectorBasis(
            L=L, n=0, masks=np.zeros(1, dtype=np.int64),
            occupations=np.zeros((1, 0), dtype=np.int64),
        )
    occs = np.array(list(combinations(range(L), n)), dtype=np.int64)
    if L <= 62:
        masks = (1 << occs).sum(axis=1)
    else:
        # beyond 62 sites the masks outgrow int64; keep them as Python ints
        masks = np.array(
            [sum(1 << int(i) for i in row) for row in occs], dtype=object
        )
    order = np.argsort(masks, kind="stable")
    return SectorBasis(L=L, n=n, masks=masks[order], occupations=occs[order])


class SectorOperator:
    """Hamiltonian restricted to one magnon-number sector.

    Wraps a real symmetric matrix (dense or CSR depending on size) and
    caches its eigendecomposition for repeated exact propagation.
    """

    def __init__(self, basis, matrix, params):
        self.basis = basis
        self.matrix = matrix
        self.params = params
        self._eig = None

    @property
    def dim(self):
        return self.basis.dim

    def dense(self):
        if sparse.issparse(self.matrix):
            return self.matrix.toarray()
        return self.matrix

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of the dense matrix."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.dense())
        return self._eig


def sector_hamiltonian(params, n, as_sparse=None):
    """Build the n-magnon sector Hamiltonian.

    Off-diagonal (2/3) J_ij moves one magnon from site i to empty site j
    (from sx sx + sy sy = 2(s+ s- + s- s+)); the diagonal carries
    (delta/3) sum_{i<j} J_ij s_i s_j with s = +-1.
    """
    basis = enumerate_sector(params.L, n)
    J = coupling_matrix(params)
    dim = basis.dim
    if as_sparse is None:
        as_sparse = dim > 6000

    # Diagonal: pairs with equal z-sign add +J_ij, opposite signs -J_ij.
    signs = -np.ones((dim, params.L))
    if n:
        rows = np.repeat(np.arange(dim), n)
        signs[rows, basis.occupations.ravel()] = 1.0
    diag = params.delta / 6.0 * np.einsum("ai,ij,aj->a", signs, J, signs)

    index = {int(m): i for i, m in enumerate(basis.masks)}
    rows, cols, vals = [], [], []
    sites = range(params.L)
    for a, m in enumerate(basis.masks):
        m = int(m)
        occ = [i for i in sites if m >> i & 1]
        for i in occ:
            for j in sites:
                if m >> j & 1:
                    continue
                b = index[m ^ (1 << i) | (1 << j)]
                if b > a:  # fill the upper triangle once, mirror below
                    rows.append(a)
                    cols.append(b)
                    vals.append(2.0 / 3.0 * J[i, j])
    if as_sparse:
        H = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
        H = (H + H.T + sparse.diags(diag)).tocsr()
    else:
        H = np.zeros((dim, dim))
        H[rows, cols] = vals
        H = H + H.T + np.diag(diag)
    return SectorOperator(basis, H, params)


FULL_SPACE_MAX_L = 24  # 2^24 amplitudes; beyond this use sector methods


def build_full_hamiltonian(params, kind="xxz"):
    """Full 2^L Hamiltonian as CSR. kind: 'xx' | 'yy' | 'zz' | 'xxz'.

    'xx'/'yy'/'zz' are the bare sum_{i<j} J_ij s^a_i s^a_j operators; 'xxz'
    is (1/3)(H_XX + H_YY + delta * H_ZZ).
    """
    L = params.L
    if L > FULL_SPACE_MAX_L:
        raise ValueError(
            f"full-space operators hold (2^{L}, {L}) occupation tables of "
            f"{8 * L << L} bytes each at L={L}; they are limited to "
            f"L <= {FULL_SPACE_MAX_L}"
        )
    kind = kind.lower()
    if kind not in ("xx", "yy", "zz", "xxz"):
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    if kind == "xxz":
        Hxx = build_full_hamiltonian(params, "xx")
        Hyy = build_full_hamiltonian(params, "yy")
        Hzz = build_full_hamiltonian(params, "zz")
        return ((Hxx + Hyy + params.delta * Hzz) / 3.0).tocsr()

    dim = 1 << L
    J = coupling_matrix(params)
    idx = np.arange(dim, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(L)) & 1  # (dim, L)

    if kind == "zz":
        s = 2.0 * bits - 1.0
        diag = 0.5 * np.einsum("ai,ij,aj->a", s, J, s)  # J has zero diagonal
        return sparse.diags(diag).tocsr()

    rows, cols, vals = [], [], []
    for i in range(L):
        for j in range(i + 1, L):
            if J[i, j] == 0.0:
                continue
            mask = (1 << i) | (1 << j)
            flipped = idx ^ mask
            if kind == "xx":
                amp = np.full(dim, J[i, j])
            else:  # yy: sign -(-1)^(b_i + b_j)
                amp = -J[i, j] * (1.0 - 2.0 * ((bits[:, i] + bits[:, j]) % 2))
            rows.append(flipped)
            cols.append(idx)
            vals.append(amp)
    H = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return H.tocsr()


def magnon_number_operator(L):
    """Diagonal total magnon number on the full 2^L space."""
    idx = np.arange(1 << L, dtype=np.int64)
    counts = np.zeros(1 << L)
    for j in range(L):
        counts += (idx >> j) & 1
    return sparse.diags(counts).tocsr()


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

    def normalized(self):
        return StateVector(self.data / np.linalg.norm(self.data), self.basis)

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
