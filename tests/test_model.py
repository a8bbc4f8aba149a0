import sys
import threading
import time

import numpy as np
import pytest
from scipy import sparse

from magnonlab.model import (
    ModelParams,
    SectorOperator,
    StateVector,
    build_full_hamiltonian,
    coupling_matrix,
    enumerate_sector,
    sector_hamiltonian,
    sector_state_from_sites,
    vacuum_energy,
)
from oracles import kron_hamiltonian, number_operator

def dict_sector_hamiltonian(params, n):
    """The sector build as first written, the oracle of the bits-table build.

    A Python loop over masks through a row dict fills the upper triangle,
    which is mirrored and given the (delta/6) s^T J s diagonal; dense.
    """
    basis = enumerate_sector(params.L, n)
    J = coupling_matrix(params)
    dim = basis.dim
    signs = -np.ones((dim, params.L))
    if n:
        signs[np.repeat(np.arange(dim), n), basis.occupations.ravel()] = 1.0
    diag = params.delta / 6.0 * np.einsum("ai,ij,aj->a", signs, J, signs)
    index = {int(m): i for i, m in enumerate(basis.masks)}
    rows, cols, vals = [], [], []
    sites = range(params.L)
    for a, m in enumerate(basis.masks):
        m = int(m)
        for i in (i for i in sites if m >> i & 1):
            for j in sites:
                if m >> j & 1:
                    continue
                b = index[m ^ (1 << i) | (1 << j)]
                if b > a:
                    rows.append(a)
                    cols.append(b)
                    vals.append(2.0 / 3.0 * J[i, j])
    H = np.zeros((dim, dim))
    H[rows, cols] = vals
    return H + H.T + np.diag(diag)


def test_coupling_matrix_experimental_values():
    p = ModelParams(L=20, alpha=1.4, J=369.0)
    J = coupling_matrix(p)
    assert J[0, 1] == pytest.approx(369.0)
    assert J[0, 2] == pytest.approx(369.0 / 2**1.4)
    assert J[3, 3] == 0.0
    assert np.allclose(J, J.T)


def test_coupling_matrix_ring_uses_cyclic_distance():
    p = ModelParams(L=10, alpha=1.4, boundary="ring")
    J = coupling_matrix(p)
    assert J[0, 9] == pytest.approx(p.J)  # neighbors across the seam
    assert J[0, 5] == pytest.approx(p.J / 5**1.4)
    assert J[0, 6] == pytest.approx(p.J / 4**1.4)


def test_sector_dimensions_and_masks():
    basis = enumerate_sector(6, 2)
    assert basis.dim == 15
    assert sorted(int(m) for m in basis.masks) == [
        m for m in range(2**6) if bin(m).count("1") == 2
    ]
    with pytest.raises(ValueError):
        enumerate_sector(4, 5)
    # round trip
    for i, m in enumerate(basis.masks):
        assert basis.index_of(int(m)) == i


@pytest.mark.parametrize("L", [6, 70])
def test_index_of_takes_arrays_of_masks(L):
    basis = enumerate_sector(L, 2)
    picks = np.array([basis.dim - 1, 0, 3, 3])
    rows = basis.index_of(basis.masks[picks])
    assert isinstance(rows, np.ndarray)
    assert np.array_equal(rows, picks)
    scalar = basis.index_of(int(basis.masks[2]))
    assert type(scalar) is int and scalar == 2
    absent = basis.masks[picks].copy()
    absent[1] = 0b111  # three magnons: in no 2-magnon basis
    with pytest.raises(KeyError, match="0x7 not in 2-magnon basis"):
        basis.index_of(absent)
    with pytest.raises(KeyError):  # past the last mask
        basis.index_of([int(basis.masks[-1]) + 1])
    with pytest.raises(KeyError):
        basis.index_of(0b111)


def test_enumerate_sector_is_cached_and_read_only():
    basis = enumerate_sector(9, 3)
    assert enumerate_sector(9, 3) is basis
    for arr in (basis.masks, basis.occupations, basis.bits):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("L, n", [(8, 0), (8, 1), (8, 3), (70, 2)])
def test_sector_bits_match_occupation_scatter(L, n):
    basis = enumerate_sector(L, n)
    scatter = np.zeros((basis.dim, L), dtype=np.uint8)
    if n:
        scatter[np.arange(basis.dim)[:, None], basis.occupations] = 1
    assert basis.bits.dtype == np.uint8
    assert np.array_equal(basis.bits, scatter)
    # the same table read off the masks, object integers beyond 62 sites
    from_masks = [[int(m) >> j & 1 for j in range(L)] for m in basis.masks]
    assert np.array_equal(basis.bits, from_masks)


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("delta", [0.0, 1.0, 3.5])
def test_full_hamiltonian_matches_kron_oracle(boundary, delta):
    p = ModelParams(L=5, alpha=1.4, delta=delta, boundary=boundary)
    built = build_full_hamiltonian(p).toarray()
    oracle = kron_hamiltonian(p, "xx").toarray()
    assert np.max(np.abs(built - oracle)) < 1e-12


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("L,delta", [(6, 0.0), (6, 2.2), (7, 3.5)])
def test_sector_hamiltonian_matches_projected_oracle(L, delta, boundary):
    """Sector blocks must equal the full Hamiltonian restricted to fixed n."""
    p = ModelParams(L=L, alpha=1.4, delta=delta, boundary=boundary)
    H = kron_hamiltonian(p, "xxz").toarray()
    for n in range(L + 1):
        basis = enumerate_sector(L, n)
        sub = H[np.ix_(basis.masks, basis.masks)]
        assert np.max(np.abs(sub.imag)) < 1e-14
        block = sector_hamiltonian(p, n).dense()
        assert np.max(np.abs(block - sub.real)) < 1e-12


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("L", [6, 9, 12])
def test_sector_hamiltonian_equals_dict_oracle(L, boundary):
    p = ModelParams(L=L, alpha=1.4, delta=2.7, boundary=boundary)
    for n in range(L + 1):
        op = sector_hamiltonian(p, n)
        assert op.matrix.format == "csr"
        assert np.array_equal(op.dense(), dict_sector_hamiltonian(p, n))


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_sector_hamiltonian_equals_dict_oracle_object_masks(boundary):
    p = ModelParams(L=70, alpha=1.4, delta=1.3, boundary=boundary)
    op = sector_hamiltonian(p, 2)
    assert op.basis.masks.dtype == object
    assert np.array_equal(op.dense(), dict_sector_hamiltonian(p, 2))


def test_sector_matrix_is_real_symmetric():
    p = ModelParams(L=10, alpha=1.4, delta=2.0)
    H = sector_hamiltonian(p, 2).dense()
    assert H.dtype == np.float64
    assert np.array_equal(H, H.T)


def test_xxz_commutes_with_magnon_number():
    for boundary in ("open", "ring"):
        p = ModelParams(L=8, alpha=1.4, delta=1.7, boundary=boundary)
        H = kron_hamiltonian(p, "xxz")
        N = number_operator(8)
        comm = (H @ N - N @ H)
        assert abs(comm).max() == 0.0


def test_xx_alone_does_not_conserve_magnon_number():
    p = ModelParams(L=2, alpha=1.4)
    H = build_full_hamiltonian(p)
    N = number_operator(2)
    comm = (H @ N - N @ H).toarray()
    assert np.max(np.abs(comm)) > 0.1


def test_open_chain_reflection_symmetry_of_spectra():
    p = ModelParams(L=9, alpha=1.4, delta=2.0, boundary="open")
    for n in (1, 2, 3):
        op = sector_hamiltonian(p, n)
        basis = op.basis
        # permutation j -> L-1-j on bitmasks
        perm = np.empty(basis.dim, dtype=int)
        for i, m in enumerate(basis.masks):
            refl = sum(1 << (p.L - 1 - j) for j in range(p.L) if int(m) >> j & 1)
            perm[i] = basis.index_of(refl)
        H = op.dense()
        assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) < 1e-12


@pytest.mark.parametrize("L, n", [(9, 0), (9, 3), (8, 4), (70, 1), (70, 2)])
def test_mirror_matches_reversed_masks(L, n):
    basis = enumerate_sector(L, n)
    want = [basis.index_of(sum(1 << (L - 1 - int(j)) for j in row))
            for row in basis.occupations]
    assert np.array_equal(basis.mirror, want)
    assert not basis.mirror.flags.writeable


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("L, n", [(8, 0), (8, 4), (9, 3), (9, 4), (70, 1)])
def test_eigensystem_is_split_by_reflection(L, n, boundary):
    op = sector_hamiltonian(ModelParams(L=L, alpha=1.4, delta=2.3, boundary=boundary), n)
    H = op.dense()
    norm = np.abs(H).sum(axis=1).max()
    blocks = op.eigensystem()
    for q, w, v in blocks:  # each stored block: Q^T H Q V = V diag(w)
        assert np.abs(q.T @ (H @ (q @ v)) - v * w).max(initial=0.0) <= 1e-12 * norm
    # the Q V columns of both blocks, in ascending order of their eigenvalues
    evals = np.concatenate([w for _, w, _ in blocks])
    evecs = np.hstack([q @ v for q, _, v in blocks])
    order = np.argsort(evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    assert evecs.shape == (op.dim, op.dim) and evecs.dtype == np.float64
    assert np.abs(evecs.T @ evecs - np.eye(op.dim)).max() <= 1e-12
    assert np.abs(H @ evecs - evecs * evals).max() <= 1e-12 * norm
    assert np.abs(evals - np.linalg.eigh(H)[0]).max() <= 1e-12 * max(norm, 1.0)
    # each eigenvector is even or odd under the site reversal
    mirrored = evecs[op.basis.mirror]
    parity = np.einsum("ij,ij->j", mirrored, evecs)
    assert np.abs(np.abs(parity) - 1.0).max() <= 1e-12
    assert np.abs(mirrored - evecs * parity).max() <= 1e-12
    orbits = np.count_nonzero(np.arange(op.dim) <= op.basis.mirror)
    assert np.count_nonzero(parity > 0) == orbits


def test_eigensystem_rejects_a_matrix_that_breaks_the_reflection():
    basis = enumerate_sector(6, 1)
    op = SectorOperator(basis, sparse.diags(np.arange(6.0)).tocsr(), ModelParams(L=6))
    with pytest.raises(ValueError, match="site reversal"):
        op.eigensystem()


def test_eigensystem_is_diagonalized_once_under_two_threads(monkeypatch):
    op = sector_hamiltonian(ModelParams(L=10, alpha=1.4, delta=2.0), 4)
    shapes = []
    eigh = np.linalg.eigh

    def slow_eigh(a):
        shapes.append(a.shape)
        time.sleep(0.05)  # hold the window in which a second thread could enter
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
    barrier = threading.Barrier(2)
    results = [None, None]

    def work(i):
        barrier.wait(timeout=10)
        results[i] = op.eigensystem()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[0] is not None and results[0] is results[1]
    # dim 210: 110 even configurations (10 palindromes + 100 pairs), 100 odd
    assert sorted(shapes) == [(100, 100), (110, 110)]


def test_vacuum_energy_matches_zero_sector():
    p = ModelParams(L=12, alpha=1.4, delta=2.5)
    H0 = sector_hamiltonian(p, 0).dense()
    assert H0.shape == (1, 1)
    assert H0[0, 0] == pytest.approx(vacuum_energy(p), rel=1e-14)
    J = coupling_matrix(p)
    assert vacuum_energy(p) == pytest.approx(p.delta / 3 * J[np.triu_indices(12, 1)].sum())


def test_full_space_guard():
    with pytest.raises(ValueError, match="full-space"):
        build_full_hamiltonian(ModelParams(L=25))


def test_state_vector_basics():
    p = ModelParams(L=6)
    psi = sector_state_from_sites(p, [2, 3])
    assert psi.basis == ("sector", 6, 2)
    assert psi.norm() == pytest.approx(1.0)
    idx = np.argmax(np.abs(psi.data))
    assert int(enumerate_sector(6, 2).masks[idx]) == (1 << 1) | (1 << 2)
    other = StateVector(np.ones(4) / 2.0, ("sector", 6, 1))
    with pytest.raises(ValueError, match="basis mismatch"):
        psi.overlap(other)
    with pytest.raises(ValueError):
        sector_state_from_sites(p, [0, 3])


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(L=1)
    with pytest.raises(ValueError):
        ModelParams(L=4, boundary="periodic")
    with pytest.raises(ValueError):
        ModelParams(L=4, alpha=-1.0)
    # probes divide times by J: zero, negative or non-finite J is no chain
    for J in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="J must be finite and positive"):
            ModelParams(L=4, J=J)
