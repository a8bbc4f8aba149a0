"""Full-space oracles: brute-force Pauli products on all 2^L states.

The program builds the XXZ chain only per magnon sector, and in the full
space only the pulse simulator's H_XX. These kron constructions are the
references for both, for full-space evolution and for number conservation.
"""

import numpy as np
from scipy import sparse

from magnonlab.model import coupling_matrix

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
