import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from magnonlab.model import (
    ModelParams,
    StateVector,
    build_full_hamiltonian,
    sector_hamiltonian,
    sector_state_from_sites,
)
from magnonlab.evolve import (
    EXACT_DIM_MAX,
    PULSE_MAX_L,
    PulseSequence,
    PulseStep,
    _pulse_eigensystem,
    _pulse_hamiltonian,
    exact_evolve,
    fidelity,
    floquet_evolve,
    krylov_evolve,
    propagate,
)
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


def test_exact_evolve_dimension_guard():
    class Stub:
        dim = EXACT_DIM_MAX + 1

    with pytest.raises(ValueError, match="krylov"):
        exact_evolve(Stub(), np.zeros(3), 1.0)


@pytest.mark.parametrize("L, n", [(10, 2), (8, 3)])
def test_propagate_matches_exact_evolve_at_every_time(L, n):
    p = ModelParams(L=L, alpha=1.4, delta=2.0, boundary="open")
    H = sector_hamiltonian(p, n)
    rng = np.random.default_rng(L + n)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    times = np.linspace(0.0, 7.9, 40)
    grid = propagate(H, v, times)
    assert grid.shape == (len(times), H.dim)
    evals, evecs = np.linalg.eigh(H.dense())
    for t, row in zip(times, grid):
        ref = reference_spectral_step(evecs, np.exp(-1j * evals * t), v)
        assert np.max(np.abs(row - exact_evolve(H, v, t))) <= 1e-13
        assert np.max(np.abs(row - ref)) <= 1e-13


def test_propagate_dimension_guard():
    class Stub:
        dim = EXACT_DIM_MAX + 1

    with pytest.raises(ValueError, match=f"dimension {EXACT_DIM_MAX + 1} exceeds "
                                         "exact-diagonalization guard .*krylov_evolve"):
        propagate(Stub(), np.zeros(3), np.linspace(0.0, 1.0, 4))
    dim = EXACT_DIM_MAX + 1
    with pytest.raises(ValueError, match=f"about {4 * dim**2} bytes together and their "
                                         f"eigenvectors as many again"):
        propagate(Stub(), np.zeros(3), np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("L, n", [(10, 2), (9, 3), (10, 4)])
def test_propagate_rows_match_the_full_propagation(L, n, boundary):
    p = ModelParams(L=L, alpha=1.4, delta=2.0, boundary=boundary)
    H = sector_hamiltonian(p, n)
    rng = np.random.default_rng(L * n)
    v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    v /= np.linalg.norm(v)
    times = np.linspace(0.0, 7.9, 24)
    full = propagate(H, v, times)
    mirror = H.basis.mirror
    palindromes = np.flatnonzero(mirror == np.arange(H.dim))
    assert palindromes.size  # the selection below reads palindromic rows
    pairs = np.flatnonzero(mirror != np.arange(H.dim))
    for R in (np.sort(np.concatenate([palindromes[::2], pairs[::3]])),
              rng.permutation(H.dim)[: H.dim // 4],  # unsorted
              np.arange(H.dim),
              np.empty(0, dtype=np.intp)):
        got = propagate(H, v, times, rows=R)
        assert got.shape == (len(times), len(R))
        assert np.abs(got - full[:, R]).max(initial=0.0) <= 1e-13
        one = propagate(H, v, 3.1, rows=R)  # scalar t
        assert one.shape == (len(R),)
        assert np.abs(one - propagate(H, v, 3.1)[R]).max(initial=0.0) <= 1e-13


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
        rep = floquet_evolve("dd", p, psi0, int(n), t)
        errs.append(np.linalg.norm(rep.state.data - ref))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.0


def test_floquet_dd_equals_plain_at_zero_detuning():
    p = ModelParams(L=4, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 0, 2)
    for n in range(1, 9):
        a = floquet_evolve("dd", p, psi0, n, 0.8).state.data
        b = floquet_evolve("plain", p, psi0, n, 0.8).state.data
        phase = np.vdot(b, a)
        phase = phase / abs(phase)
        assert np.linalg.norm(a - phase * b) < 1e-12


def test_floquet_dd_beats_plain_under_detuning():
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 2, 3)
    t = 2.0
    ref = exact_full_state(p, psi0, t)
    f_dd = floquet_evolve("dd", p, psi0, 64, t, detuning=0.4, reference=ref).fidelity
    f_pl = floquet_evolve("plain", p, psi0, 64, t, detuning=0.4, reference=ref).fidelity
    assert f_dd > 0.9
    assert f_dd - f_pl > 0.1


def test_floquet_second_order_improves_nonpalindromic_cycle():
    dd = PulseSequence.built_in("dd")
    rot = PulseSequence(dd.steps[1:] + dd.steps[:1], name="rotated")
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 2, 3)
    t = 2.0
    ref = exact_full_state(p, psi0, t)
    # 8k first-order steps and 17k mirrored steps share the same tau
    f1 = floquet_evolve(rot, p, psi0, 16, t, reference=ref).fidelity
    f2 = floquet_evolve(rot, p, psi0, 34, t, reference=ref, second_order=True).fidelity
    assert f2 > f1


def test_floquet_rotation_inhomogeneity():
    p = ModelParams(L=4, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 1, 2)
    t = 0.8
    ref = exact_full_state(p, psi0, t)
    ideal = floquet_evolve("dd", p, psi0, 32, t, reference=ref)
    same = floquet_evolve("dd", p, psi0, 32, t, reference=ref,
                          rotation_scale=np.ones(4))
    assert np.allclose(ideal.state.data, same.state.data, atol=1e-13)
    skew = floquet_evolve("dd", p, psi0, 32, t, reference=ref,
                          rotation_scale=np.array([1.05, 0.97, 1.02, 0.95]))
    assert skew.fidelity < ideal.fidelity
    assert skew.fidelity > 0.5


def test_floquet_number_leakage_is_weak():
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    psi0 = adjacent_flip_state(p, 2, 3)
    rep = floquet_evolve("dd", p, psi0, 64, 2.0)
    N = number_operator(p.L)
    n_mean = np.vdot(rep.state.data, N * rep.state.data).real
    assert abs(n_mean - 2.0) < 0.05
    assert abs(n_mean - 2.0) > 1e-12  # pulses do leak a little


def test_floquet_report_bookkeeping():
    p = ModelParams(L=4, alpha=1.4, delta=2.0, boundary="open")
    psi0 = adjacent_flip_state(p, 1, 2)
    ref = exact_full_state(p, psi0, 1.2)
    rep = floquet_evolve("dd", p, psi0, 24, 1.2, reference=ref, record_every=8)
    assert 0.0 <= rep.fidelity <= 1.0
    assert rep.n_steps == 24
    assert rep.tau == pytest.approx(4 * 1.2 / (3 * 24))
    assert rep.times[-1] == pytest.approx(1.2)
    assert np.all(np.diff(rep.times) > 0)
    assert len(rep.states) == len(rep.times)
    for s in rep.states:
        assert abs(s.norm() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="n_steps"):
        floquet_evolve("dd", p, psi0, 0, 1.0)


def reference_rotation(u, psi, L, site_scale=None, step=None):
    """Global rotation by moving each site's axis to the front."""
    psi = psi.reshape((2,) * L)
    for q in range(L):
        uq = u if site_scale is None else step.rotation(scale=site_scale[q])
        ax = L - 1 - q  # site q is bit q, the fastest axis is the last
        psi = np.moveaxis(np.tensordot(uq, np.moveaxis(psi, ax, 0), axes=(1, 0)), 0, ax)
    return psi.reshape(-1)


def reference_floquet(seq, p, psi0, n_steps, t_eff, detuning, rotation_scale,
                      record_every, second_order):
    """Step-by-step pulse loop with the reference rotation and step."""
    seq = PulseSequence.built_in(seq)
    if second_order:
        seq = seq.symmetrized()
    tau = t_eff * seq.cycle_len / (seq.cycle_effective * n_steps)
    evals, evecs = _pulse_eigensystem(p.L, p.alpha, p.J, p.boundary, detuning)
    weights = seq.weights(p.delta) * tau
    psi, states = psi0.astype(complex), []
    for n in range(1, n_steps + 1):
        s = seq.steps[(n - 1) % seq.cycle_len]
        if rotation_scale is None:
            psi = reference_rotation(s.rotation(), psi, p.L)
        else:
            psi = reference_rotation(None, psi, p.L, site_scale=rotation_scale, step=s)
        w = weights[(n - 1) % seq.cycle_len]
        if w:
            psi = reference_spectral_step(evecs, np.exp(-1j * evals * w), psi)
        if record_every and n % record_every == 0 and n < n_steps:
            rf = seq.final_rotations[n % seq.cycle_len]
            states.append(reference_rotation(rf, psi, p.L))
    states.append(reference_rotation(seq.final_rotations[n_steps % seq.cycle_len],
                                     psi, p.L))
    return states


@pytest.mark.parametrize("seq, detuning, scale, record_every, second_order", [
    ("dd", 0.4, [1.05, 0.97, 1.02, 0.95, 1.01, 0.99], 8, False),
    ("plain", -0.3, None, 5, True),
    ("dd", 0.0, None, 3, True),
])
def test_floquet_matches_reference_loop(seq, detuning, scale, record_every,
                                        second_order):
    p = ModelParams(L=6, alpha=1.4, delta=3.5, boundary="open")
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi0 /= np.linalg.norm(psi0)
    scale = None if scale is None else np.array(scale)
    rep = floquet_evolve(seq, p, psi0, 40, 2.0, detuning=detuning,
                         rotation_scale=scale, record_every=record_every,
                         second_order=second_order)
    ref = reference_floquet(seq, p, psi0, 40, 2.0, detuning, scale,
                            record_every, second_order)
    assert len(rep.states) == len(ref) > 2
    for got, want in zip(rep.states, ref):
        assert np.max(np.abs(got.data - want)) <= 1e-13


def test_floquet_length_guard_states_dense_size():
    L = PULSE_MAX_L + 1
    p = ModelParams(L=L, alpha=1.4, delta=3.5, boundary="open")
    with pytest.raises(ValueError, match=rf"\({8 * 4**L} bytes at L={L}\)") as err:
        floquet_evolve("dd", p, np.zeros(1), 8, 1.0)
    assert "eigh holds about five such matrices" in str(err.value)


def reference_pulse_eigensystem(L, alpha, J, boundary, detuning):
    """The pulse eigensystem as first built: a float copy and a dense diagonal."""
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
    evals, evecs = _pulse_eigensystem.__wrapped__(*args)
    ref_vals, ref_vecs = reference_pulse_eigensystem(*args)
    assert np.array_equal(evals, ref_vals)
    assert np.array_equal(evecs, ref_vecs)


def test_pulse_eigensystem_allocates_one_dense_matrix_per_role():
    L = 10
    matrix = 8 * 4**L
    args = (L, 1.4, 1.0, "open", 0.7)
    _pulse_eigensystem.__wrapped__(*args)  # warm imports outside the trace
    tracemalloc.start()
    try:
        _pulse_hamiltonian(*args)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _pulse_eigensystem.__wrapped__(*args)
        eig_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float copy or a dense diagonal would double the build
    assert build_peak < 1.25 * matrix
    # the Hamiltonian and the returned eigenvectors; LAPACK's workspace is
    # allocated outside numpy and not traced
    assert eig_peak < 2.25 * matrix


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
