import tracemalloc
from itertools import combinations

import mpmath
import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from magnonlab.model import (
    ModelParams,
    StateVector,
    _reflection_blocks,
    build_full_hamiltonian,
    full_space_bits,
    sector_hamiltonian,
    sector_state_from_sites,
    vacuum_energy,
)
from magnonlab import evolve
from magnonlab.evolve import (
    BUILT_IN,
    PULSE_MAX_L,
    PulseSequence,
    PulseStep,
    _pulse_block_dims,
    _pulse_blocks,
    _pulse_eigensystem,
    _sweep_chunk,
    exact_evolve,
    fidelity,
    floquet_evolve,
    floquet_sweep,
    krylov_evolve,
    propagate,
)
from magnonlab.spectral import ONE_THREAD_BELOW_DIM
from oracles import kron_hamiltonian, number_operator


def full_space_propagate(params, psi0, t):
    """Brute-force oracle: dense expm of the full 2^L Hamiltonian."""
    H = kron_hamiltonian(params).toarray()
    return expm(-1j * t * H) @ psi0


def adjacent_flip_state(params, i, j):
    psi = np.zeros(2**params.L, dtype=complex)
    psi[(1 << i) | (1 << j)] = 1.0
    return psi


# ---------------------------------------------------------------- exact


def test_exact_evolve_t0_is_identity():
    p = ModelParams(L=8, alpha=1.4, delta=1.0, boundary="ring")
    H = sector_hamiltonian(p, 2)
    rng = np.random.default_rng(3)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    out = exact_evolve(H, v, 0.0)
    assert np.allclose(out, v, atol=1e-14)


def test_exact_evolve_eigenstate_picks_up_phase_only():
    p = ModelParams(L=7, alpha=1.4, delta=2.0)
    H = sector_hamiltonian(p, 2)
    evals, evecs = np.linalg.eigh(H.dense())
    k = 5
    out = exact_evolve(H, evecs[:, k].astype(complex), t=0.77)
    assert np.allclose(out, np.exp(-1j * evals[k] * 0.77) * evecs[:, k], atol=1e-12)
    assert np.allclose(np.abs(out), np.abs(evecs[:, k]), atol=1e-13)


def test_exact_evolve_matches_full_space_brute_force():
    p = ModelParams(L=8, alpha=1.4, delta=3.5, boundary="open")
    H = sector_hamiltonian(p, 2)
    psi = sector_state_from_sites(p, (4, 5))
    out = exact_evolve(H, psi, 1.3)
    full = full_space_propagate(p, adjacent_flip_state(p, 3, 4), 1.3)
    # embed: each sector mask is its full-space index
    embedded = full[np.asarray(H.basis.masks, dtype=np.int64)]
    assert np.allclose(out.data, embedded, atol=1e-10)
    assert abs(out.norm() - 1.0) < 1e-12


def reference_spectral_step(evecs, phase, psi):
    """The complex form of the spectral step, conjugating evecs."""
    return evecs @ (phase * (evecs.conj().T @ psi))


def test_exact_evolve_matches_complex_spectral_step():
    p = ModelParams(L=10, alpha=1.4, delta=2.0, boundary="open")
    H = sector_hamiltonian(p, 2)
    psi = sector_state_from_sites(p, (4, 5))
    evals, evecs = np.linalg.eigh(H.dense())
    for t in (0.0, 1.3, 7.9):
        ref = reference_spectral_step(evecs, np.exp(-1j * evals * t), psi.data)
        assert np.max(np.abs(exact_evolve(H, psi, t).data - ref)) <= 1e-13


def test_spectral_step_rejects_complex_eigenvectors():
    # products on the float views equal V (phase * V^T z) only for a real V
    z = np.ones((3, 2), dtype=complex)
    with pytest.raises(TypeError, match="needs real eigenvectors"):
        evolve._spectral_step(np.eye(3, dtype=complex), np.ones((3, 1)), z)


@pytest.mark.parametrize("row_form_dim", [1, 10**9])
def test_spectral_step_row_and_column_forms_match_complex_step(monkeypatch, row_form_dim):
    monkeypatch.setattr(evolve, "SPECTRAL_ROW_FORM_DIM", row_form_dim)
    rng = np.random.default_rng(3)
    evals, evecs = np.linalg.eigh(rng.normal(size=(40, 40)) + rng.normal(size=(40, 40)).T)
    z = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    phase = np.exp(-1j * np.multiply.outer(evals, [0.3, 1.1, 2.0]))
    readout = rng.normal(size=(7, 40))
    ref = reference_spectral_step(evecs, phase, z)
    assert np.max(np.abs(evolve._spectral_step(evecs, phase, z) - ref)) <= 1e-13
    assert np.max(np.abs(evolve._spectral_step(evecs, phase, z, readout)
                         - readout @ evecs.T @ ref)) <= 1e-12


@pytest.mark.parametrize("L, n", [(10, 2), (8, 3)])
def test_propagate_matches_exact_evolve_at_every_time(monkeypatch, L, n):
    p = ModelParams(L=L, alpha=1.4, delta=2.0, boundary="open")
    H = sector_hamiltonian(p, n)
    rng = np.random.default_rng(L + n)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    times = np.linspace(0.0, 7.9, 40)
    evals, evecs = np.linalg.eigh(H.dense())
    for series in (True, False):  # the Chebyshev series, then the dense blocks
        force_branch(monkeypatch, series)
        grid = propagate(H, v, times)
        assert (H._eig is None) == series
        assert grid.shape == (len(times), H.dim)
        for t, row in zip(times, grid):
            ref = reference_spectral_step(evecs, np.exp(-1j * evals * t), v)
            assert np.max(np.abs(row - exact_evolve(H, v, t))) <= 1e-13
            assert np.max(np.abs(row - ref)) <= 1e-13


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("L, n", [(10, 2), (9, 3), (10, 4)])
def test_propagate_rows_match_the_full_propagation(monkeypatch, L, n, boundary):
    p = ModelParams(L=L, alpha=1.4, delta=2.0, boundary=boundary)
    H = sector_hamiltonian(p, n)
    rng = np.random.default_rng(L * n)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    times = np.linspace(0.0, 7.9, 24)
    mirror = H.basis.mirror
    palindromes = np.flatnonzero(mirror == np.arange(H.dim))
    assert palindromes.size  # the selection below reads palindromic rows
    pairs = np.flatnonzero(mirror != np.arange(H.dim))
    selections = (np.sort(np.concatenate([palindromes[::2], pairs[::3]])),
                  rng.permutation(H.dim)[: H.dim // 4],  # unsorted
                  np.arange(H.dim),
                  np.empty(0, dtype=np.intp))
    for series in (True, False):  # the Chebyshev series, then the dense blocks
        force_branch(monkeypatch, series)
        full = propagate(H, v, times)
        assert (H._eig is None) == series
        # a real state goes through the same complex kernel
        assert np.array_equal(propagate(H, v.real, times),
                              propagate(H, v.real + 0j, times))
        for R in selections:
            got = propagate(H, v, times, rows=R)
            assert got.shape == (len(times), len(R))
            assert np.abs(got - full[:, R]).max(initial=0.0) <= 1e-13
            one = propagate(H, v, 3.1, rows=R)  # scalar t
            assert one.shape == (len(R),)
            assert np.abs(one - propagate(H, v, 3.1)[R]).max(initial=0.0) <= 1e-13


def force_branch(monkeypatch, series):
    """Open the cost gate of the Chebyshev series to any cost, or close it."""
    monkeypatch.setattr(evolve, "CHEBYSHEV_NNZ_PER_DIM3", np.inf if series else 0.0)


def chebyshev_and_dense(monkeypatch, H, v, times, rows=None):
    """propagate on the Chebyshev branch, then on the dense one."""
    out = []
    for series in (True, False):
        force_branch(monkeypatch, series)
        out.append(propagate(H, v, times, rows=rows))
        assert (H._eig is None) == series
    return out


@pytest.mark.parametrize("times, min_orders", [
    (np.linspace(-6.0, 2.0, 17), 0),  # negative times
    (np.linspace(0.0, 40.0, 9), 200),  # a long window
])
def test_chebyshev_series_matches_the_dense_blocks(monkeypatch, times, min_orders):
    p = ModelParams(L=10, alpha=1.4, delta=3.0, boundary="ring")
    H = sector_hamiltonian(p, 3)
    rng = np.random.default_rng(5)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    # J_k(a max|t|) weighs at every order k up to a max|t|, so K exceeds it
    # on the interval the series uses
    assert evolve.series_orders(H.spectral_interval[0] * np.abs(times).max()) > min_orders
    rows = rng.permutation(H.dim)[:30]
    cheb, dense = chebyshev_and_dense(monkeypatch, H, v, times, rows)
    assert np.abs(cheb - dense).max() <= 1e-12
    # summed over blocks of 7 orders instead of one block
    monkeypatch.setattr(evolve, "CHEBYSHEV_BLOCK_BYTES", 16 * len(rows) * 7)
    H = sector_hamiltonian(p, 3)  # no cached eigensystem, so the branch shows
    cheb, _ = chebyshev_and_dense(monkeypatch, H, v, times, rows)
    assert np.abs(cheb - dense).max() <= 1e-12


def test_bessel_table_matches_mpmath():
    x = np.array([0.0, 0.3, 35.0, 352.0])
    table = evolve._bessel_j(x, 420)
    assert table.shape == (4, 420)
    for row, xv in zip(table, x):
        for k in (0, 1, 7, 34, 35, 36, 200, 351, 352, 380, 419):
            assert row[k] == pytest.approx(float(mpmath.besselj(k, xv)), abs=2e-15)


def test_chebyshev_series_of_a_zero_width_sector_is_a_phase(monkeypatch):
    # the vacuum sector (dim 1) has a = 0: e^(-i E_0 t), no division by a
    p = ModelParams(L=8, alpha=1.4, delta=3.0)
    H = sector_hamiltonian(p, 0)
    times = np.linspace(-3.0, 5.0, 9)
    cheb, dense = chebyshev_and_dense(monkeypatch, H, np.array([0.6 + 0.8j]), times)
    assert np.isfinite(cheb).all()
    assert np.abs(cheb - dense).max() <= 1e-12
    phase = (0.6 + 0.8j) * np.exp(-1j * vacuum_energy(p) * times)
    assert np.abs(cheb[:, 0] - phase).max() <= 1e-12


def test_chebyshev_branch_never_diagonalizes(monkeypatch):
    p = ModelParams(L=10, alpha=1.4, delta=2.0)
    H = sector_hamiltonian(p, 4)
    monkeypatch.setattr(evolve, "CHEBYSHEV_NNZ_PER_DIM3", np.inf)
    psi = propagate(H, sector_state_from_sites(p, (2, 3, 6, 7)), np.linspace(0, 4, 5))
    assert H._eig is None
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("delta", [0.0, 3.0])
@pytest.mark.parametrize("n", [0, 7])
def test_chebyshev_series_of_a_one_state_sector_is_a_finite_phase(monkeypatch, n, delta):
    # n = 0 and n = L hold one state and no hop: a zero or roundoff-wide
    # interval, never 0/0
    p = ModelParams(L=7, alpha=1.4, delta=delta)
    H = sector_hamiltonian(p, n)
    a, b = H.spectral_interval
    assert np.isfinite([a, b]).all() and 0 <= a <= 1e-11 * max(1.0, abs(b))
    times = np.linspace(-3.0, 5.0, 9)
    cheb, _ = chebyshev_and_dense(monkeypatch, H, np.array([0.6 + 0.8j]), times)
    assert np.isfinite(cheb).all()
    phase = (0.6 + 0.8j) * np.exp(-1j * H.matrix[0, 0] * times)
    assert np.abs(cheb[:, 0] - phase).max() <= 1e-12


@pytest.mark.parametrize("L, max_orders", [(18, 145), (20, 150)])
def test_four_magnon_series_runs_on_the_tight_interval(L, max_orders):
    # the n=4 sector of two_magnon_spectroscopy (L=18) and fig1d (L=20) over
    # t = 8: the Gershgorin interval took K = 180 and 186 orders
    H = sector_hamiltonian(ModelParams(L=L, alpha=1.4, delta=3.0), 4)
    times = np.linspace(0.0, 8.0, 65)
    assert evolve.takes_series(H, times)
    assert evolve.series_orders(H.spectral_interval[0] * 8.0) <= max_orders


def test_dense_block_counts_the_palindromes():
    # L=40, n=2 (dim 780) has 20 palindromic configurations, so its even
    # block is 400, not (dim + 1) // 2 = 390: large enough for the starting
    # BLAS thread count; the vacuum's one configuration is its own mirror
    p = ModelParams(L=40, alpha=1.4, delta=3.0)
    assert evolve._dense_block(sector_hamiltonian(p, 2)) == 400
    assert evolve._dense_block(sector_hamiltonian(p, 2)) >= ONE_THREAD_BELOW_DIM
    assert evolve._dense_block(sector_hamiltonian(p, 0)) == 1


def test_long_window_takes_the_dense_blocks(monkeypatch):
    # quench --length 50 --t-max 2000: at dim 1225, K ~ 10^4 orders cost
    # more than one eigh of the two blocks
    p = ModelParams(L=50, alpha=1.4, delta=3.5)
    H = sector_hamiltonian(p, 2)
    times = np.linspace(0.0, 2000.0, 40)
    assert not evolve.takes_series(H, times)
    assert evolve.takes_series(H, [0.0, 4.0])  # a short window keeps the series
    # a sector whose eigensystem would not fit the budget never diagonalizes
    monkeypatch.setattr(evolve, "SECTOR_MAX_BYTES", 4 * H.dim**2 - 1)
    assert evolve.takes_series(H, times)
    monkeypatch.undo()
    psi = propagate(H, sector_state_from_sites(p, (25, 26)), times)
    assert H._eig is not None
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
    # the choice is by cost alone: a cached eigensystem does not change it
    assert evolve.takes_series(H, [0.0, 4.0])


@pytest.mark.parametrize("max_bytes", [1, 10**9])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_propagate_rejects_non_finite_times(monkeypatch, max_bytes, bad):
    # the dense path once returned NaN rows; the series would stop at K = 1.
    # A 1-byte budget leaves no room for an eigensystem, so propagate takes
    # the series; 10^9 leaves this small sector to the dense blocks.
    # krylov_evolve runs the same input check
    monkeypatch.setattr(evolve, "SECTOR_MAX_BYTES", max_bytes)
    p = ModelParams(L=8, alpha=1.4, delta=2.0)
    H = sector_hamiltonian(p, 2)
    for run in (propagate, krylov_evolve):
        with pytest.raises(ValueError, match="times must be finite"):
            run(H, sector_state_from_sites(p, (4, 5)), [0.0, bad])


@pytest.mark.parametrize("L, series", [(18, True), (12, False)])
def test_a_block_of_states_equals_one_call_per_column(L, series):
    # the n=4 sector over fig1d's window: dim 3060 takes the series, dim 495
    # the dense blocks
    p = ModelParams(L=L, alpha=1.4, delta=3.0)
    H = sector_hamiltonian(p, 4)
    times = np.linspace(0.0, 8.0, 16, endpoint=False)
    assert evolve.takes_series(H, times) == series
    rng = np.random.default_rng(L)
    block = rng.normal(size=(H.dim, 3)) + 1j * rng.normal(size=(H.dim, 3))
    subset = np.sort(rng.permutation(H.dim)[: H.dim // 5])
    for rows in (None, subset):
        got = propagate(H, block, times, rows=rows)
        n_rows = H.dim if rows is None else len(rows)
        assert got.shape == (len(times), n_rows, 3)
        for j in range(3):
            one = propagate(H, block[:, j], times, rows=rows)
            assert np.abs(got[..., j] - one).max() <= 1e-13 * np.abs(one).max()
        # a one-column block is the one-state call, product for product
        assert np.array_equal(propagate(H, block[:, :1], times, rows=rows)[..., 0],
                              propagate(H, block[:, 0], times, rows=rows))
        at = propagate(H, block, 3.1, rows=rows)  # scalar t
        assert at.shape == (n_rows, 3)
        assert np.array_equal(at, propagate(H, block, [3.1], rows=rows)[0])
    assert (H._eig is None) == series


class CountingMatrix:
    """A sparse matrix that records the shape of every vector it multiplies."""

    def __init__(self, mat):
        self.mat, self.shapes = mat, []

    def __matmul__(self, v):
        self.shapes.append(v.shape)
        return self.mat @ v


def test_a_block_runs_one_sparse_product_per_order():
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    H = sector_hamiltonian(p, 4)
    times = np.linspace(0.0, 8.0, 64, endpoint=False)
    n_orders = evolve.series_orders(H.spectral_interval[0] * times.max())
    rng = np.random.default_rng(2)
    block = rng.normal(size=(H.dim, 3)) + 1j * rng.normal(size=(H.dim, 3))
    for vec, shapes in ((block, [(H.dim, 6)]), (block[:, :1], [(H.dim,)] * 2),
                        (block[:, 0], [(H.dim,)] * 2)):
        mat = CountingMatrix(H.matrix)
        evolve._chebyshev_series(mat, H.spectral_interval, vec, times, None)
        assert mat.shapes == shapes * (n_orders - 1)


@pytest.mark.parametrize("shape", [(494, 2), (496,), (495, 2, 1)])
def test_propagate_rejects_a_state_of_the_wrong_shape(shape):
    H = sector_hamiltonian(ModelParams(L=12, alpha=1.4, delta=3.0), 4)  # dim 495
    for run in (propagate, krylov_evolve):
        with pytest.raises(ValueError, match=r"is not \(dim,\) or \(dim, m\) for dim 495"):
            run(H, np.ones(shape, dtype=complex), [0.0, 1.0])


# ---------------------------------------------------------------- krylov


def test_krylov_matches_exact_two_magnon():
    p = ModelParams(L=12, alpha=1.4, delta=3.0, boundary="ring")
    H = sector_hamiltonian(p, 2)
    psi = sector_state_from_sites(p, (6, 7))
    a = exact_evolve(H, psi, 2.0)
    b = krylov_evolve(H, psi, 2.0)
    assert np.linalg.norm(a.data - b.data) < 1e-8


def test_krylov_zero_hamiltonian_is_identity():
    rng = np.random.default_rng(0)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    out = krylov_evolve(np.zeros((40, 40)), v, 17.3)
    assert np.allclose(out, v, atol=1e-14)


def test_krylov_rejects_a_complex_matrix():
    # the series runs in real sparse products, like the spectral step
    H = sparse.identity(4, format="csr") * (1.0 + 0.5j)
    with pytest.raises(TypeError, match="real matrix"):
        krylov_evolve(H, np.ones(4), 1.0)
    with pytest.raises(TypeError, match="real matrix"):
        krylov_evolve(H.toarray(), np.ones(4), 1.0)


def test_krylov_large_single_magnon_conserves_energy_and_norm():
    p = ModelParams(L=400, alpha=1.4, delta=0.7, boundary="ring")
    H = sector_hamiltonian(p, 1)
    psi0 = sector_state_from_sites(p, (200,))
    out = krylov_evolve(H, psi0, 2.0)
    e0 = np.vdot(psi0.data, H.matrix @ psi0.data).real
    e1 = np.vdot(out.data, H.matrix @ out.data).real
    assert abs(e1 - e0) < 1e-8 * max(1.0, abs(e0))
    assert abs(out.norm() - 1.0) < 1e-10 * 2.0


# ---------------------------------------------------------------- fidelity


def test_fidelity_trivial_cases():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    w = np.array([1.0, -1.0j]) / np.sqrt(2)
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(v, w) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_basis_mismatch_raises():
    a = StateVector(data=np.array([1.0, 0, 0]), basis=("sector", 3, 1))
    b = StateVector(data=np.array([1.0, 0, 0]), basis=("sector", 3, 2))
    with pytest.raises(ValueError):
        fidelity(a, b)


# ---------------------------------------------------------------- sequences


def test_built_in_sequences_validate():
    dd = PulseSequence.built_in("dd")
    plain = PulseSequence.built_in("plain")
    for seq in (dd, plain):
        assert seq.cycle_len == 8
        assert np.allclose(seq.final_rotations[0], np.eye(2))
        assert seq.toggled_pulse_axes == list("xzzyyzzx")
        assert seq.cycle_effective == pytest.approx(6.0)
    assert dd.detuning_cancels()
    assert not plain.detuning_cancels()


def test_final_rotation_table_inverts_accumulated_frame():
    dd = PulseSequence.built_in("dd")
    for n in range(9):
        prod = dd.final_rotations[n] @ dd.frames[n]
        assert np.allclose(prod, np.eye(2), atol=1e-12)


def test_invalid_sequences_raise():
    with pytest.raises(ValueError, match="axis"):
        PulseStep("+z", np.deg2rad(90.0), 1.0, 0.0)
    with pytest.raises(ValueError, match="identity"):
        PulseSequence([PulseStep("+x", np.deg2rad(90.0), 1.0, 0.0)])
    # frame closes but no YY substep ever occurs
    with pytest.raises(ValueError, match="substep|ratio|wall"):
        PulseSequence([PulseStep("+x", np.deg2rad(180.0), 1.0, 0.0)] * 2)
    with pytest.raises(ValueError, match="empty"):
        PulseSequence([])


def dd_then_plain():
    """A 16-step cycle: dd's frame closes after 8 steps, then plain's runs."""
    steps = BUILT_IN["dd"] + BUILT_IN["plain"]
    return PulseSequence(steps, name="dd+plain")


def test_wall_time_ratio_holds_at_every_delta():
    # x- and y-type pulses of (1.0, -0.1), z-type of (0.135, 0.315): every
    # duration is positive for 0 <= Delta < 10 and the z : x wall-time ratio
    # is Delta at Delta = 1 and 2.7 only (3.81 at 3.5, 0.27 at 0)
    dd = PulseSequence.built_in("dd")
    steps = [PulseStep(s.axis, s.angle, *((1.0, -0.1) if ax in "xy" else (0.135, 0.315)))
             for s, ax in zip(dd.steps, dd.toggled_pulse_axes)]
    with pytest.raises(ValueError, match="ratio"):
        PulseSequence(steps, name="quadratic")
    assert dd_then_plain().cycle_effective == 12.0


def test_cycled_sequence_still_valid():
    dd = PulseSequence.built_in("dd")
    rot = PulseSequence(dd.steps[1:] + dd.steps[:1], name="rotated")
    assert sorted(rot.toggled_pulse_axes) == sorted(dd.toggled_pulse_axes)
    assert rot.detuning_cancels()


# ---------------------------------------------------------------- floquet


def exact_full_state(params, psi0, t):
    H = kron_hamiltonian(params).toarray()
    evals, evecs = np.linalg.eigh(H)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))


def test_floquet_converges_with_error_exponent_at_least_one():
    p = ModelParams(L=4, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 1, 2)
    t = 0.8
    ref = exact_full_state(p, psi0, t)
    ns = np.array([8, 16, 32, 64])
    errs = []
    for n in ns:
        state = floquet_evolve("dd", p, psi0, int(n), t)
        errs.append(np.linalg.norm(state.data - ref))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.0


def test_floquet_dd_equals_plain_at_zero_detuning():
    p = ModelParams(L=4, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 0, 2)
    for n in range(1, 9):
        a = floquet_evolve("dd", p, psi0, n, 0.8).data
        b = floquet_evolve("plain", p, psi0, n, 0.8).data
        phase = np.vdot(b, a)
        phase = phase / abs(phase)
        assert np.linalg.norm(a - phase * b) < 1e-12


def test_floquet_dd_beats_plain_under_detuning():
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 2, 3)
    t = 2.0
    ref = exact_full_state(p, psi0, t)
    f_dd = fidelity(floquet_evolve("dd", p, psi0, 64, t, detuning=0.4), ref)
    f_pl = fidelity(floquet_evolve("plain", p, psi0, 64, t, detuning=0.4), ref)
    assert f_dd > 0.9
    assert f_dd - f_pl > 0.1


def test_floquet_number_leakage_is_weak():
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 2, 3)
    state = floquet_evolve("dd", p, psi0, 64, 2.0)
    N = number_operator(p.L)
    n_mean = np.vdot(state.data, N * state.data).real
    assert abs(n_mean - 2.0) < 0.05
    assert abs(n_mean - 2.0) > 1e-12  # pulses do leak a little


def test_floquet_returns_a_unit_full_state_and_rejects_zero_steps():
    p = ModelParams(L=4, alpha=1.4, delta=2.0, boundary="open")
    psi0 = adjacent_flip_state(p, 1, 2)
    state = floquet_evolve("dd", p, psi0, 21, 1.2)
    assert state.basis == ("full", 4)
    assert abs(state.norm() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="n_steps"):
        floquet_evolve("dd", p, psi0, 0, 1.0)


def reference_rotation(u, psi, L):
    """Global rotation by moving each site's axis to the front."""
    psi = psi.reshape((2,) * L)
    for q in range(L):
        ax = L - 1 - q  # site q is bit q, the fastest axis is the last
        psi = np.moveaxis(np.tensordot(u, np.moveaxis(psi, ax, 0), axes=(1, 0)), 0, ax)
    return psi.reshape(-1)


def reference_floquet(seq, p, psi0, n_steps, t_eff, detuning):
    """Step-by-step pulse loop with the reference rotation and step; the
    final state with R_f,n applied."""
    tau = t_eff * seq.cycle_len / (seq.cycle_effective * n_steps)
    evals, evecs = reference_pulse_eigensystem(p.L, p.alpha, p.J, p.boundary, detuning)
    psi = psi0.astype(complex)
    for n in range(1, n_steps + 1):
        step = seq.steps[(n - 1) % seq.cycle_len]
        psi = reference_rotation(step.rotation(), psi, p.L)
        w = step.weight(p.delta) * tau
        if w:
            psi = reference_spectral_step(evecs, np.exp(-1j * evals * w), psi)
    return reference_rotation(seq.final_rotations[n_steps % seq.cycle_len], psi, p.L)


# every step count ends inside a cycle whose accumulated frame is not the
# identity, so the corrective rotation R_f,n is checked at partial cycles
@pytest.mark.parametrize("seq, detuning, n_steps", [
    ("dd", 0.4, 37), ("plain", -0.3, 3), ("dd+plain", 0.0, 45),
])
def test_floquet_matches_reference_loop(seq, detuning, n_steps):
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi0 /= np.linalg.norm(psi0)
    seq = dd_then_plain() if seq == "dd+plain" else PulseSequence.built_in(seq)
    assert not np.allclose(seq.final_rotations[n_steps % seq.cycle_len], np.eye(2))
    state = floquet_evolve(seq, p, psi0, n_steps, 2.0, detuning=detuning)
    want = reference_floquet(seq, p, psi0, n_steps, 2.0, detuning)
    assert np.max(np.abs(state.data - want)) <= 1e-13


def test_floquet_length_guard_states_dense_size():
    L = PULSE_MAX_L + 1
    d = (2 ** (L - 1) + 2 ** (L // 2)) // 2  # the largest block: 2080 at L=13
    p = ModelParams(L=L, alpha=1.4, delta=3.5, boundary="open")
    with pytest.raises(ValueError, match=rf"dim {d} \({8 * d * d} bytes at L={L}\)") as err:
        floquet_evolve("dd", p, np.zeros(1), 8, 1.0)
    assert "four dense z-parity x reflection blocks" in str(err.value)
    # blocks of 2080, 2016, 2080 and 2016: one detuning exceeds the chunk budget,
    # but the pulse cache still keeps four
    assert (f"retains the eigenvectors of 4 detunings "
            f"({4 * 8 * 2 * (2080**2 + 2016**2)} bytes: chunks of 1") in str(err.value)


def test_sweep_retains_the_cached_eigenvectors_the_guard_states(monkeypatch):
    # one detuning per chunk, as from L=11 on: the cache, not the chunk, bounds
    # what a sweep of five detunings leaves behind
    L = 6
    monkeypatch.setattr(evolve, "SWEEP_CHUNK_BYTES", 1)
    chunk, per_detuning = _sweep_chunk(L)
    p = ModelParams(L=L, alpha=1.4, delta=3.5, boundary="open")
    psi0 = np.eye(2**L)[0b001100].astype(complex)
    dets = [-0.8, -0.4, 0.0, 0.4, 0.8]
    _pulse_eigensystem.cache_clear()
    floquet_sweep(["dd"], p, psi0, 8, 1.0, dets, psi0)
    held = [_pulse_eigensystem(L, 1.4, p.J, "open", d) for d in dets[-4:]]
    info = _pulse_eigensystem.cache_info()
    assert (chunk, info.misses, info.hits, info.currsize) == (1, 5, 4, 4)
    retained = sum(V.nbytes for eig in held for _, _, V in eig)
    assert retained == max(chunk, evolve.PULSE_CACHE_ENTRIES) * per_detuning


def test_pulse_block_dims_and_sweep_chunks():
    for L in range(2, 11):
        pairs = _pulse_blocks(L)[0]
        assert _pulse_block_dims(L) == [q.shape[1] for pair in pairs for q in pair]
    assert _sweep_chunk(9)[0] >= 5  # the pulsed_sweep benchmark in one chunk
    assert _sweep_chunk(12) == (1, 8 * (1056**2 + 992**2 + 2 * 1024**2))


def test_floquet_sweep_matches_per_run_calls_and_reference_loop(monkeypatch):
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi0 /= np.linalg.norm(psi0)
    ref = exact_full_state(p, psi0, 2.0)
    dets = np.array([-0.9, -0.3, 0.0, 0.4, 1.1])
    # two detunings per chunk, so the sweep runs chunks of 2, 2 and 1
    monkeypatch.setattr(evolve, "SWEEP_CHUNK_BYTES", 2 * _sweep_chunk(6)[1] + 1)
    assert _sweep_chunk(6)[0] == 2
    # cycles of 8 and 16 steps in one block, each in another frame after 46 steps
    seqs = [PulseSequence.built_in("dd"), PulseSequence.built_in("plain"), dd_then_plain()]
    finals = [seq.final_rotations[46 % seq.cycle_len] for seq in seqs]
    assert not any(np.allclose(a, b) for a, b in combinations(finals, 2))
    got = floquet_sweep(seqs, p, psi0, 46, 2.0, dets, ref)
    assert got.shape == (len(dets), len(seqs))
    for i, det in enumerate(dets):
        for s, seq in enumerate(seqs):
            run = floquet_evolve(seq, p, psi0, 46, 2.0, detuning=det)
            loop = reference_floquet(seq, p, psi0, 46, 2.0, det)
            assert abs(got[i, s] - fidelity(run, ref)) <= 1e-12
            assert abs(got[i, s] - abs(np.vdot(loop, ref)) ** 2) <= 1e-12
    assert np.ptp(got) > 0.1


def reference_pulse_eigensystem(L, alpha, J, boundary, detuning):
    """The dense pulse eigensystem: H_XX and a dense diagonal, one eigh."""
    params = ModelParams(L=L, alpha=alpha, delta=0.0, J=J, boundary=boundary)
    H = build_full_hamiltonian(params).toarray().astype(float)
    if detuning:
        bits = (np.arange(2**L)[:, None] >> np.arange(L)) & 1
        H = H + np.diag(0.5 * detuning * (2.0 * bits - 1.0).sum(axis=1))
    return np.linalg.eigh(H)


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("detuning", [0.0, -0.6, 1.3])
def test_pulse_eigensystem_is_bit_identical_to_reference(boundary, detuning):
    args = (8, 1.4, 1.0, boundary, detuning)
    blocks = _pulse_eigensystem.__wrapped__(*args)
    ref_vals, ref_vecs = reference_pulse_eigensystem(*args)
    H = ref_vecs @ (ref_vals[:, None] * ref_vecs.T)
    norm = np.abs(ref_vals).max()
    assert [q.shape[1] for q, _, _ in blocks] == [72, 56, 64, 64]
    evals = np.concatenate([w for _, w, _ in blocks])
    evecs = np.hstack([q @ v for q, _, v in blocks])
    assert np.abs(np.sort(evals) - ref_vals).max() <= 1e-12 * norm
    assert np.abs(evecs.T @ evecs - np.eye(2**8)).max() <= 1e-12
    assert np.abs(H @ evecs - evecs * evals).max() <= 1e-12 * norm


def test_pulse_eigensystem_allocates_one_dense_matrix_per_role():
    L = 10
    matrix = 8 * 4**L
    args = (L, 1.4, 1.0, "open", 0.7)
    _pulse_eigensystem.__wrapped__(*args)  # warm imports outside the trace
    _pulse_blocks.cache_clear()
    tracemalloc.start()
    try:
        _pulse_eigensystem.__wrapped__(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the four blocks' eigenvectors hold a quarter of a dense 2^L x 2^L
    # matrix, and the whole build peaked at 0.46 of one; LAPACK's workspace
    # is allocated outside numpy and not traced
    assert peak < 0.75 * matrix


def test_reflection_blocks_reject_a_matrix_that_breaks_the_reversal():
    L = 6
    H = build_full_hamiltonian(ModelParams(L=L, alpha=1.4))
    pairs = _pulse_blocks(L)[0]
    for q_even, q_odd in pairs:
        _reflection_blocks(H, q_even, q_odd)
    # a field on site 0 alone keeps prod_j sz_j but not the site reversal
    field = sparse.diags(1.0 - 2.0 * full_space_bits(L)[:, 0])
    for q_even, q_odd in pairs:
        with pytest.raises(ValueError, match="site reversal"):
            _reflection_blocks(H + 1e-6 * field, q_even, q_odd)


# ---------------------------------------------------------------- invariants


def test_xxz_evolution_conserves_magnon_number():
    p = ModelParams(L=6, alpha=1.4, delta=1.3, boundary="ring")
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi0 /= np.linalg.norm(psi0)
    N = number_operator(p.L)
    n0 = np.vdot(psi0, N * psi0).real
    n20 = np.vdot(psi0, N**2 * psi0).real
    for t in (0.7, 2.9):
        psi = full_space_propagate(p, psi0, t)
        assert abs(np.vdot(psi, N * psi).real - n0) < 1e-10
        assert abs(np.vdot(psi, N**2 * psi).real - n20) < 1e-10


def test_single_magnon_sector_is_delta_independent_on_ring():
    p0 = ModelParams(L=30, alpha=1.4, delta=0.0, boundary="ring")
    p3 = ModelParams(L=30, alpha=1.4, delta=3.0, boundary="ring")
    H0 = sector_hamiltonian(p0, 1).dense()
    H3 = sector_hamiltonian(p3, 1).dense()
    diff = H3 - H0
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off)) < 1e-12
    assert np.ptp(np.diag(diff)) < 1e-12  # multiple of identity
    psi = sector_state_from_sites(p0, (15,))
    a = exact_evolve(sector_hamiltonian(p0, 1), psi, 2.0)
    b = exact_evolve(sector_hamiltonian(p3, 1), psi, 2.0)
    assert np.max(np.abs(np.abs(a.data) ** 2 - np.abs(b.data) ** 2)) < 1e-10
