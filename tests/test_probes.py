import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from magnonlab import probes
from magnonlab.model import (
    FULL_SPACE_MAX_L,
    ModelParams,
    StateVector,
    build_full_hamiltonian,
    enumerate_sector,
    sector_hamiltonian,
    sector_state_from_sites,
)
from magnonlab.probes import (
    N_SAMPLES,
    SPECTRO_TWO_TMAX,
    SpacetimeMap,
    _imprint,
    _ising_sectors,
    _pair_lowering_block,
    _pair_lowering_indices,
    bs_participation,
    center_pair_state,
    front_velocity,
    imprint_phases,
    ising_phase_state,
    participation_crossover,
    prepare_planewave_one,
    prepare_two_magnon,
    quench_projectors,
    spectral_peak,
    spectroscopy_one,
    spectroscopy_two,
    standing_wave_momenta,
)
from magnonlab.spectral import dispersion_one, dispersion_two


def ising_state_oracle(params, t_J, phases):
    """Brute-force e^{-i phi.sz/2} e^{-i t H_XX} |0> via dense expm."""
    L = params.L
    H = build_full_hamiltonian(params).toarray()
    psi = np.zeros(1 << L, dtype=complex)
    psi[0] = 1.0
    psi = expm(-1j * (t_J / params.J) * H) @ psi
    idx = np.arange(1 << L)
    acc = np.zeros(1 << L)
    for i in range(L):
        acc += phases[i] * ((idx >> i) & 1)
    return psi * np.exp(-1j * (acc - np.sum(phases) / 2.0))


def list_pair_lowering_indices(hi, lo, pair_col):
    """Row-list index map of sm_j sm_{j+1} from sector hi to lo (oracle)."""
    pair = (1 << pair_col) | (1 << (pair_col + 1))
    rows = [i for i, m in enumerate(hi.masks) if int(m) & pair == pair]
    mates = [lo.index_of(int(hi.masks[i]) ^ pair) for i in rows]
    return np.array(rows, dtype=np.int64), np.array(mates, dtype=np.int64)


def dense_eigh_propagate(H, psi0, times, rows=None):
    """Oracle for ``propagate``: one dense eigh of the whole sector matrix."""
    evals, evecs = np.linalg.eigh(H.dense())
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    phase = np.exp(-1j * np.multiply.outer(evals, times))
    full = (evecs @ (phase * (evecs.T @ vec)[:, None])).T
    return full if rows is None else full[:, rows]


def eigenbasis_pair_signal(params, k, sites, n_max, t_prep_J=0.19):
    """Pair coherence of spectroscopy_two, contracted in the eigenbases.

    The full-space preparation is projected per sector, expanded in each
    sector's eigenbasis, phased, and lowered by _pair_lowering_block.
    """
    psi = ising_phase_state(params, t_prep_J, imprint_phases(k, params.L))
    t_phys = np.linspace(0.0, SPECTRO_TWO_TMAX, N_SAMPLES, endpoint=False) / params.J
    phased = {}
    for n in range(0, n_max + 1, 2):
        H = sector_hamiltonian(params, n)
        evals, evecs = np.linalg.eigh(H.dense())
        coef = evecs.T @ psi[np.asarray(H.basis.masks, dtype=np.int64)]
        phased[n] = np.exp(-1j * np.outer(evals, t_phys)) * coef[:, None]
    pairs = range(sites[0] - 1, sites[1])
    signal = np.zeros((len(pairs), N_SAMPLES), dtype=complex)
    for col, p in enumerate(pairs):
        for n in range(2, n_max + 1, 2):
            block = _pair_lowering_block(params, n, p)
            signal[col] += np.einsum("at,at->t", phased[n - 2].conj(), block @ phased[n])
    return signal


# ------------------------------------------------------------ preparations


@pytest.mark.parametrize("L,boundary", [(3, "open"), (4, "ring"), (5, "open")])
def test_ising_phase_state_matches_expm(L, boundary):
    p = ModelParams(L=L, alpha=1.4, delta=0.0, boundary=boundary)
    phases = imprint_phases(1.1, L)
    got = ising_phase_state(p, 0.37, phases)
    want = ising_state_oracle(p, 0.37, phases)
    assert np.abs(got - want).max() < 1e-12
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


def test_planewave_matches_product_state_projection():
    L = 6
    p = ModelParams(L=L)
    k, q = standing_wave_momenta(L)[2], standing_wave_momenta(L)[0]
    gamma = 0.7
    j = np.arange(1, L + 1)
    A = np.sqrt(2.0 / L) * (np.sin(k * j) + np.sin(q * j))
    psi = np.array([1.0 + 0j])
    for a in A:  # site 1 is bit 0, so new sites go on the left of the kron
        psi = np.kron(np.array([np.cos(gamma * a), 1j * np.sin(gamma * a)]), psi)
    basis = enumerate_sector(L, 1)
    comp = psi[np.asarray(basis.masks, dtype=np.int64)]
    weight = np.sum(np.abs(comp) ** 2)

    prep = prepare_planewave_one(p, [k, q], gamma=gamma)
    assert prep.weight == pytest.approx(weight, rel=1e-12)
    assert np.abs(prep.state.data - comp / np.sqrt(weight)).max() < 1e-12


def test_planewave_small_gamma_gives_sine_profile():
    L = 20
    p = ModelParams(L=L)
    k = standing_wave_momenta(L)[4]
    prep = prepare_planewave_one(p, [k], gamma=1e-5)
    prof = np.sin(k * np.arange(1, L + 1))
    prof = prof / np.linalg.norm(prof)
    overlap = np.abs(np.vdot(prof, prep.state.data))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_planewave_rejects_unquantized_momentum():
    p = ModelParams(L=10)
    with pytest.raises(ValueError, match="standing wave"):
        prepare_planewave_one(p, [1.0])
    with pytest.raises(ValueError, match="gamma"):
        prepare_planewave_one(p, [standing_wave_momenta(10)[0]], gamma=2.0)


def test_two_magnon_prep_adjacent_pairs_dominate():
    # first order in t the pair amplitude is -i t J / d^alpha
    p = ModelParams(L=14, alpha=1.4)
    prep = prepare_two_magnon(p, k=np.pi / 2, t_prep_J=0.005)
    occ = enumerate_sector(14, 2).occupations
    d = occ[:, 1] - occ[:, 0]
    amp = np.abs(prep.state.data)
    a1 = amp[d == 1].mean()
    for dd in (2, 3, 5):
        assert a1 / amp[d == dd].mean() == pytest.approx(dd**1.4, rel=0.02)
    assert prep.neglected_weight == pytest.approx(1.0 - prep.weight, abs=1e-12)


def test_two_magnon_prep_imprint_sets_pair_momentum():
    # with phi_j = k j / 2 consecutive adjacent pairs pick up phase -k
    L, k = 12, np.pi / 2
    p = ModelParams(L=L, alpha=1.4)
    prep = prepare_two_magnon(p, k=k, t_prep_J=1e-3)
    basis = enumerate_sector(L, 2)
    amps = {tuple(o): a for o, a in zip(map(tuple, basis.occupations), prep.state.data)}
    for j in range(4, 8):
        ratio = amps[(j + 1, j + 2)] / amps[(j, j + 1)]
        assert np.angle(ratio) == pytest.approx(-k, abs=1e-4)


def test_two_magnon_prep_weight_at_experiment_time():
    p = ModelParams(L=20, alpha=1.4)
    prep = prepare_two_magnon(p, k=np.pi, t_prep_J=0.19)
    assert 0.1 < prep.weight < 0.9
    assert prep.state.basis == ("sector", 20, 2)


# ------------------------------------------------------------ spectral peak


@pytest.mark.parametrize("w", [0.9, 2.37, 3.83])
def test_spectral_peak_synthetic_lines(w):
    times = np.linspace(0, 16, 64, endpoint=False)
    _, _, f, _ = spectral_peak(times, np.exp(-1j * w * times)[None, :], two_sided=True)
    assert f == pytest.approx(w, abs=5e-3)
    _, _, fr, _ = spectral_peak(times, np.cos(w * times + 0.3)[None, :])
    assert fr == pytest.approx(w, abs=5e-3)


def test_spectral_peak_two_lines_contrast():
    times = np.linspace(0, 16, 64, endpoint=False)
    sig = np.exp(-1j * 3.0 * times) + 0.2 * np.exp(-1j * 1.2 * times)
    _, _, f, contrast = spectral_peak(times, sig[None, :], two_sided=True)
    assert f == pytest.approx(3.0, abs=5e-3)
    assert contrast == pytest.approx(5.0, rel=0.15)


def test_spectral_peak_requires_uniform_grid():
    times = np.array([0.0, 1.0, 2.5, 3.0])
    with pytest.raises(ValueError, match="uniform"):
        spectral_peak(times, np.ones((1, 4)))


# ------------------------------------------------------------ spectroscopy


def test_spectroscopy_one_matches_sector_eigenvalues():
    p = ModelParams(L=20, alpha=1.4, delta=0.0)
    ks = standing_wave_momenta(20)
    evals, evecs = np.linalg.eigh(sector_hamiltonian(p, 1).dense())
    j = np.arange(1, 21)

    def nearest_level(k):
        return evals[np.argmax(np.abs(evecs.T @ np.sin(k * j)))]

    for n in (5, 10, 17):
        sig = spectroscopy_one(p, ks[n - 1])
        exact = abs(nearest_level(ks[n - 1]) - nearest_level(ks[0]))
        assert sig.frequency == pytest.approx(exact, abs=0.05)


def test_spectroscopy_one_within_bin_of_series_all_momenta():
    p = ModelParams(L=20, alpha=1.4, delta=0.0)
    ks = standing_wave_momenta(20)
    e_ref = dispersion_one(ks[0], p)
    for n in range(2, 21):
        sig = spectroscopy_one(p, ks[n - 1])
        series = abs(dispersion_one(ks[n - 1], p) - e_ref)
        assert abs(sig.frequency - series) < sig.resolution


def test_spectroscopy_one_equal_momenta_beat_is_zero():
    p = ModelParams(L=20, alpha=1.4)
    k = standing_wave_momenta(20)[7]
    sig = spectroscopy_one(p, k, q=k)
    assert sig.frequency == 0.0
    assert sig.contrast is None


def test_spectroscopy_one_gamma_invariance():
    p = ModelParams(L=20, alpha=1.4)
    ks = standing_wave_momenta(20)
    for n in (5, 12):
        f3 = spectroscopy_one(p, ks[n - 1], gamma=0.3).frequency
        f7 = spectroscopy_one(p, ks[n - 1], gamma=0.7).frequency
        assert abs(f3 - f7) < f7 * 0.01


def test_spectroscopy_one_resolution_bookkeeping():
    p = ModelParams(L=20, alpha=1.4, J=2.0)
    sig = spectroscopy_one(p, standing_wave_momenta(20)[9], t_max_J=16.0)
    assert sig.resolution == pytest.approx(2 * np.pi * 2.0 / 16.0)
    assert sig.values.shape == (20, 64)


def test_spectroscopy_two_tracks_ring_dispersion():
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    pring = ModelParams(L=12, alpha=1.4, delta=3.0, boundary="ring")
    for m in (6, 4, 3):
        k = 2 * np.pi * m / 12
        sig = spectroscopy_two(p, k, sites=(5, 8))
        ref = dispersion_two(np.array([k]), pring).energy[0]
        assert abs(sig.frequency - ref) < sig.resolution
        assert sig.neglected_weight < 0.05


def test_spectroscopy_two_contrast_sharp_at_high_k():
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    mid = spectroscopy_two(p, 2 * np.pi * 4 / 12, sites=(5, 8))
    low = spectroscopy_two(p, 2 * np.pi * 1 / 12, sites=(5, 8))
    assert mid.contrast > 10
    assert mid.contrast > 2 * low.contrast


def test_spectroscopy_two_window_invariance():
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    a = spectroscopy_two(p, np.pi / 2, sites=(5, 8))
    b = spectroscopy_two(p, np.pi / 2, sites=(4, 9))
    assert abs(a.frequency - b.frequency) < a.resolution


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_cached_sectors_times_imprint_match_ising_phase_state(boundary):
    L, t = 10, 0.19
    p = ModelParams(L=L, alpha=1.4, delta=3.0, boundary=boundary)
    comps = _ising_sectors(p, t, 6)
    assert not any(c.flags.writeable for c in comps)
    for k in (0.4, np.pi / 2, 2.9):
        full = ising_phase_state(p, t, imprint_phases(k, L))
        for n, comp in zip(range(0, 7, 2), comps):
            basis = enumerate_sector(L, n)
            want = full[np.asarray(basis.masks, dtype=np.int64)]
            got = _imprint(basis.bits, comp, imprint_phases(k, L))
            assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("L,sites", [(10, (3, 7)), (12, (5, 8))])
@pytest.mark.parametrize("n_max", [4, 6])
def test_spectroscopy_two_matches_eigenbasis_contraction(L, sites, n_max):
    p = ModelParams(L=L, alpha=1.4, delta=3.0)
    for m in (1, 3, 5):
        k = 2 * np.pi * m / L
        sig = spectroscopy_two(p, k, sites=sites, n_max=n_max)
        want = eigenbasis_pair_signal(p, k, sites, n_max)
        assert np.abs(sig.values - want).max() <= 1e-12


def test_spectroscopy_two_matches_dense_eigh_oracle(monkeypatch):
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    for m in (1, 4):
        k = 2 * np.pi * m / p.L
        got = spectroscopy_two(p, k, sites=(4, 9))
        with monkeypatch.context() as patch:
            patch.setattr(probes, "propagate", dense_eigh_propagate)
            want = spectroscopy_two(p, k, sites=(4, 9))
        assert np.abs(got.values - want.values).max() <= 1e-12
        assert got.frequency == pytest.approx(want.frequency, rel=1e-12)
        assert got.contrast == pytest.approx(want.contrast, rel=1e-12)


def test_spectroscopy_two_rejects_window_off_the_chain():
    p = ModelParams(L=12, alpha=1.4, delta=3.0)
    with pytest.raises(ValueError, match="leaves the chain"):
        spectroscopy_two(p, np.pi / 2, sites=(9, 12))


def test_pair_lowering_indices_match_list_oracle():
    cases = [(8, n, range(7)) for n in (2, 3, 4)]
    cases += [(70, 2, range(69)), (70, 3, (0, 31, 61, 62, 68))]  # object masks
    for L, n, cols in cases:
        hi, lo = enumerate_sector(L, n), enumerate_sector(L, n - 2)
        for col in cols:
            got = _pair_lowering_indices(hi, lo, col)
            want = list_pair_lowering_indices(hi, lo, col)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w), (L, n, col)


def test_ising_preparation_guard_rejects_before_allocating():
    L = FULL_SPACE_MAX_L + 1
    p = ModelParams(L=L, alpha=1.4, delta=3.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{L << L} bytes at L={L}, .* sign "
                                             f"table of {8 * L << L} bytes"):
            ising_phase_state(p, 0.19, imprint_phases(1.0, L))
        with pytest.raises(ValueError, match=f"limited to L <= {FULL_SPACE_MAX_L}"):
            spectroscopy_two(p, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the uint8 table alone would be 800 MiB, its signs 6.25 GiB


# ------------------------------------------------------------ quench maps


def test_quench_projector_sum_rules():
    p = ModelParams(L=10, alpha=1.4, delta=2.0)
    psi0 = center_pair_state(p)
    times = np.linspace(0, 4, 17)
    pup, pupp = quench_projectors(psi0, p, times)
    assert np.abs(pup.values.sum(axis=1) - 2.0).max() < 1e-10
    assert pup.values.shape == (17, 10)
    assert pupp.values.shape == (17, 9)
    assert np.all(pup.values > -1e-9)


def rowlist_quench_projectors(psi0, params, times_J):
    """Oracle: the per-time spectral loop summing probabilities over row lists."""
    H = sector_hamiltonian(params, psi0.basis[2])
    occ = H.basis.occupations
    L = params.L
    site_rows = [np.flatnonzero((occ == s).any(axis=1)) for s in range(L)]
    pair_rows = [
        np.flatnonzero((occ == s).any(axis=1) & (occ == s + 1).any(axis=1))
        for s in range(L - 1)
    ]
    evals, evecs = np.linalg.eigh(H.dense())
    coef = evecs.conj().T @ psi0.data
    pup = np.zeros((len(times_J), L))
    pupp = np.zeros((len(times_J), L - 1))
    for it, tJ in enumerate(times_J):
        psi = evecs @ (np.exp(-1j * evals * (tJ / params.J)) * coef)
        prob = np.abs(psi) ** 2
        pup[it] = [prob[r].sum() for r in site_rows]
        pupp[it] = [prob[r].sum() for r in pair_rows]
    return pup, pupp


@pytest.mark.parametrize("sites, delta", [((5, 6), 2.0), ((3, 5, 8), 3.5)])
def test_quench_projectors_match_rowlist_oracle(sites, delta):
    p = ModelParams(L=10, alpha=1.4, delta=delta, J=1.7)
    psi0 = sector_state_from_sites(p, sites)
    times = np.linspace(0.0, 5.5, 23)
    pup, pupp = quench_projectors(psi0, p, times)
    ref_pup, ref_pupp = rowlist_quench_projectors(psi0, p, times)
    assert np.max(np.abs(pup.values - ref_pup)) <= 1e-13
    assert np.max(np.abs(pupp.values - ref_pupp)) <= 1e-13


def test_quench_projectors_on_a_ring_match_dense_eigh_oracle(monkeypatch):
    p = ModelParams(L=11, alpha=1.4, delta=2.5, J=1.3, boundary="ring")
    psi0 = sector_state_from_sites(p, (2, 3, 7))
    times = np.linspace(0.0, 6.0, 25)
    got = quench_projectors(psi0, p, times)
    monkeypatch.setattr(probes, "propagate", dense_eigh_propagate)
    want = quench_projectors(psi0, p, times)
    for g, w in zip(got, want):
        assert np.abs(g.values - w.values).max() <= 1e-13


def test_quench_initial_adjacent_pair():
    p = ModelParams(L=10, alpha=1.4)
    pup, pupp = quench_projectors(center_pair_state(p), p, [0.0])
    assert pupp.values[0][4] == pytest.approx(1.0)  # pair (5, 6), label 5
    assert bs_participation(pupp.values[0], 10) == pytest.approx(1.0)
    assert pup.values[0][4] == pytest.approx(1.0)
    assert pup.values[0][5] == pytest.approx(1.0)


def test_quench_rejects_full_space_state():
    p = ModelParams(L=4)
    from magnonlab.model import StateVector

    bad = StateVector(np.ones(16) / 4.0, ("full", 4))
    with pytest.raises(ValueError, match="sector"):
        quench_projectors(bad, p, [0.0])


def test_participation_endpoints():
    assert bs_participation(np.eye(9)[3], 10) == pytest.approx(1.0)
    uniform = np.full(9, 2.0 / 10 / 9)  # total pair weight 2/L
    assert bs_participation(uniform, 10) == pytest.approx(0.0, abs=1e-12)


def test_spacetime_map_range_validation():
    with pytest.raises(ValueError, match="out of range"):
        SpacetimeMap(np.array([0.0]), np.arange(3), np.array([[0.1, 1.2, 0.0]]))


def test_participation_crossover_brackets_transition():
    p = ModelParams(L=20, alpha=1.4)
    curve = participation_crossover(p, [1.0, 2.2, 3.5])
    assert curve.participation[0] < 0.2
    assert curve.participation[2] > 0.5
    assert np.all(np.diff(curve.participation) > 0)


def test_participation_crossover_compare_curve():
    p = ModelParams(L=8, alpha=1.4)
    curve = participation_crossover(p, [1.0, 3.0], compare=(12, 4.0))
    assert curve.compare_participation.shape == (2,)
    assert "L=12" in curve.compare_label


# ------------------------------------------------------------ front fits


def synthetic_front_map(v, n_sites=30, n_times=21, ramp=4.0):
    """Plateau-ramp profile whose half-maximum crossing is exactly x = 8 + v t."""
    labels = np.arange(1, n_sites + 1, dtype=float)
    times = np.linspace(0, 4, n_times)
    front = 8.0 + v * times
    vals = np.clip((front[:, None] - labels[None, :]) / ramp + 0.5, 0.0, 1.0)
    return SpacetimeMap(times=times, labels=labels, values=vals, name="synthetic")


def test_front_velocity_recovers_linear_front():
    fit = front_velocity(synthetic_front_map(3.0))
    assert fit.velocity == pytest.approx(3.0, abs=1e-9)
    assert fit.residual < 1e-9
    assert fit.n_excluded == 0


def test_front_velocity_excludes_edge_contact():
    # on a 20-site window the front passes L - 2 at t = 10/3
    fit = front_velocity(synthetic_front_map(3.0, n_sites=20))
    assert fit.n_excluded > 0
    assert fit.positions.max() <= 18.0 + 1e-9
    assert fit.velocity == pytest.approx(3.0, abs=1e-9)


def test_front_velocity_needs_enough_crossings():
    m = SpacetimeMap(
        np.linspace(0, 1, 5), np.arange(1, 6), np.ones((5, 5)), name="flat"
    )
    with pytest.raises(ValueError, match="too few"):
        front_velocity(m)


def test_front_bound_pair_slower_than_free_magnons():
    p1 = ModelParams(L=20, alpha=1.4, delta=1.0)
    pup, _ = quench_projectors(center_pair_state(p1), p1, np.linspace(0, 5.5, 56))
    free = front_velocity(pup)
    p35 = ModelParams(L=20, alpha=1.4, delta=3.5)
    _, pupp = quench_projectors(center_pair_state(p35), p35, np.linspace(0, 3.0, 56))
    bound = front_velocity(pupp)
    assert free.residual < 0.5
    assert bound.residual < 0.5
    assert 0 < bound.velocity < free.velocity
