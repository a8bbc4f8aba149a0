"""Full-space oracles: brute-force Pauli products and partial traces on all
2^L states.

The program builds the XXZ chain only per magnon sector, and in the full
space only the pulse simulator's H_XX. These kron constructions are the
references for both, for full-space evolution and for number conservation.
It never forms a reduced density matrix either: the dense partial trace is
the reference for the entropies read off the singular values of M.
"""

import numpy as np
from scipy import sparse

from magnonlab.model import coupling_matrix, enumerate_sector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)  # bit 1 = up = +1


def kron_site(op, j, L):
    """Operator on site j with site j mapped to bit (1 << j)."""
    left = sparse.identity(2 ** (L - 1 - j), format="csr")
    right = sparse.identity(2**j, format="csr")
    return sparse.kron(left, sparse.kron(sparse.csr_matrix(op), right)).tocsr()


def kron_hamiltonian(params, kind="xxz"):
    """Brute-force Pauli-product construction, the full-space oracle."""
    L = params.L
    J = coupling_matrix(params)
    terms = {"xx": (SX, SX), "yy": (SY, SY), "zz": (SZ, SZ)}
    if kind == "xxz":
        return (
            kron_hamiltonian(params, "xx")
            + kron_hamiltonian(params, "yy")
            + params.delta * kron_hamiltonian(params, "zz")
        ) / 3.0
    a, b = terms[kind]
    H = sparse.csr_matrix((2**L, 2**L), dtype=complex)
    for i in range(L):
        for j in range(i + 1, L):
            H = H + J[i, j] * (kron_site(a, i, L) @ kron_site(b, j, L))
    return H


def number_operator(L):
    """Diagonal total magnon number on the full 2^L space (bit 1 = magnon)."""
    return sparse.diags([float(bin(m).count("1")) for m in range(2**L)]).tocsr()


def brute_force_partial_trace(psi, region, L):
    """Dense full-space partial trace of a sector state onto `region` (1-based
    sites, site region[i] packed into bit i), O(4^L); oracle for small L."""
    cols = [s - 1 for s in region]
    region_mask = sum(1 << c for c in cols)
    full = np.zeros(1 << L, dtype=complex)
    masks = np.asarray(enumerate_sector(L, psi.basis[2]).masks, dtype=np.int64)
    full[masks] = psi.data
    dim = 1 << len(region)
    rho = np.zeros((dim, dim), dtype=complex)
    every = np.arange(1 << L)
    packed = sum(((every >> c) & 1) << i for i, c in enumerate(cols))
    kept = every & ~region_mask
    for m1 in np.flatnonzero(np.abs(full) > 0):
        match = kept == kept[m1]
        rho[packed[m1], packed[match]] += full[m1] * np.conj(full[match])
    return rho
