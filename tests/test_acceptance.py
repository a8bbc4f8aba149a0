"""Acceptance gate: twelve end-to-end contracts, one test each.

Every test drives a full pipeline (model -> evolution -> probe) and
checks frozen tolerances; regression constants were pinned from the
oracles in the unit-test modules. Wall-time caps are part of the
contract and asserted where stated.
"""

import time

import numpy as np
import pytest

from magnonlab.entropy import entropies, mutual_information, reduced_density
from magnonlab.evolve import exact_evolve, floquet_evolve, krylov_evolve
from magnonlab.model import (
    ModelParams,
    StateVector,
    enumerate_sector,
    sector_hamiltonian,
    sector_state_from_sites,
)
from magnonlab.probes import (
    center_pair_state,
    front_velocity,
    participation_crossover,
    quench_projectors,
    spectroscopy_one,
    spectroscopy_two,
    standing_wave_momenta,
)
from magnonlab.sampling import (
    estimate_participation,
    jackknife,
    sample_snapshots,
)
from magnonlab.spectral import (
    dispersion_one,
    dispersion_two,
    group_velocity_one,
    phase_diagram,
    quantized_momenta,
    vacuum_energy,
)
from oracles import kron_hamiltonian, number_operator

ALPHA = 1.4


def test_criterion_01_ring_dispersion_identity():
    t0 = time.perf_counter()
    p = ModelParams(L=200, alpha=ALPHA, delta=0.0, boundary="ring")
    evals = np.sort(np.linalg.eigvalsh(sector_hamiltonian(p, 1).dense()))
    ks = 2.0 * np.pi * np.minimum(np.arange(200), 200 - np.arange(200)) / 200
    series = np.sort(dispersion_one(ks, p, mode="ring") + vacuum_energy(p))
    # min |eps| on this grid is 3.2e-3, elementwise relative error is well posed
    rel = np.abs(evals - series) / np.abs(series)
    assert rel.max() <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_small_k_speed_grows_with_length():
    t0 = time.perf_counter()
    speeds = [
        abs(group_velocity_one(np.pi / (L + 1), ModelParams(L=L, alpha=ALPHA)))
        for L in (50, 100, 200, 400)
    ]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_beat_spectroscopy_within_one_bin():
    t0 = time.perf_counter()
    p = ModelParams(L=20, alpha=ALPHA, delta=0.0)
    ks = standing_wave_momenta(20)
    ref = dispersion_one(float(ks[0]), p)
    for n in range(2, 21):
        sig = spectroscopy_one(p, float(ks[n - 1]))
        analytic = abs(dispersion_one(float(ks[n - 1]), p) - ref)
        # worst case n=19 reads 0.907 bins
        assert abs(sig.frequency - analytic) <= sig.resolution
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_bound_state_onset_in_band():
    t0 = time.perf_counter()
    p = ModelParams(L=300, alpha=ALPHA, boundary="ring")
    k_all = quantized_momenta(300)
    assert k_all.min() > 0.0  # the scan never includes k = 0
    idx = np.unique(np.round(np.linspace(0, len(k_all) - 1, 40)).astype(int))
    pd = phase_diagram(p, k_values=k_all[idx], deltas=np.linspace(0.5, 4.5, 17))
    onset = pd.onset_delta()
    assert onset is not None and 1.9 <= onset <= 2.5  # measured 2.0
    assert not pd.bound[:, pd.delta < 1.9].any()
    assert time.perf_counter() - t0 < 600.0


def test_criterion_05_two_magnon_peak_dominance():
    t0 = time.perf_counter()
    chain = ModelParams(L=20, alpha=ALPHA, delta=3.0)
    ring = ModelParams(L=20, alpha=ALPHA, delta=3.0, boundary="ring")
    ks = quantized_momenta(20)
    curve = dispersion_two(ks, ring)
    theory = curve.energy
    signals = [spectroscopy_two(chain, float(k)) for k in ks]
    contrasts = np.array([s.contrast for s in signals])
    devs = np.array(
        [abs(s.frequency - e) / s.resolution for s, e in zip(signals, theory)]
    )
    # the n <= 4 sector ladder must hold the prepared state
    assert all(s.neglected_weight < 0.05 for s in signals)  # measured 0.0433
    # A dominant line is expected exactly where the ring classifier finds
    # a bound state. L4 reads 0.189 at m=1 and 0.271 at m=2 against the
    # threshold 5/19 = 0.263. Contrast and flag need not agree at other
    # sizes (L=14: m=3 bound at 2.98; L=16: m=2 unbound at 11.28), so the
    # partition is pinned to these inputs.
    bound = curve.bound
    assert bound.tolist() == [False] + [True] * 9
    # measured 3.478 (m=2), then 6.3 .. 38.9
    assert (contrasts[bound] >= 3.0).all()
    assert (devs[bound] <= 1.0).all()  # measured <= 0.38 bins
    # measured 1.598 (m=1). Ladder split, m=1 / m=2: the 0<->2 term alone
    # gives 2.75 / 30.06, with the 2<->4 term (n_max=4) 1.598 / 3.478, all
    # even sectors to n=12 (neglected weight 7e-6) 1.59 / 3.72; the n <= 4
    # truncation does not decide which side of 3.0 either momentum falls.
    assert (contrasts[~bound] < 3.0).all()
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_participation_crossover_thresholds():
    t0 = time.perf_counter()
    p = ModelParams(L=20, alpha=ALPHA, delta=0.0)
    deltas = np.linspace(0.5, 4.5, 17)
    part = participation_crossover(p, deltas, tJ_eval=2.0).participation
    assert part[2] < 0.2  # delta = 1.0, measured 0.1929
    assert part[12] > 0.5  # delta = 3.5, measured 0.7281
    slopes = np.diff(part) / np.diff(deltas)
    steepest = 0.5 * (deltas[:-1] + deltas[1:])[np.argmax(slopes)]
    assert 1.8 <= steepest <= 2.6  # measured 2.125
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_front_velocity_contrast():
    t0 = time.perf_counter()
    p_bound = ModelParams(L=20, alpha=ALPHA, delta=3.5)
    _, pair = quench_projectors(
        center_pair_state(p_bound), p_bound, np.linspace(0.0, 3.0, 25)
    )
    fit_pair = front_velocity(pair)
    assert np.isfinite(fit_pair.velocity)
    assert fit_pair.residual < 0.5  # measured 0.195 sites

    p_free = ModelParams(L=20, alpha=ALPHA, delta=1.0)
    site, _ = quench_projectors(
        center_pair_state(p_free), p_free, np.linspace(0.0, 2.5, 21)
    )
    fit_site = front_velocity(site)
    # free spread 1.629 vs bound-pair front 1.046
    assert fit_site.velocity > fit_pair.velocity
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_pulse_benchmark_fidelity_and_width():
    t0 = time.perf_counter()
    p = ModelParams(L=10, alpha=ALPHA, delta=3.5)
    psi0 = center_pair_state(p)
    ref_sector = exact_evolve(sector_hamiltonian(p, 2), psi0, 3.3)
    masks = np.asarray(enumerate_sector(10, 2).masks, dtype=np.int64)
    full0 = np.zeros(2**10, dtype=complex)
    full0[masks] = psi0.data
    ref = np.zeros_like(full0)
    ref[masks] = ref_sector.data

    n_steps = 32 * 8  # 32 cycles of the 8-pulse sequences
    dets = np.linspace(-2.0, 2.0, 21)
    curves = {"dd": [], "plain": []}
    for d in dets:
        # both sequences per detuning, so they share one cached eigensystem
        for seq in ("dd", "plain"):
            curves[seq].append(floquet_evolve(
                seq, p, full0, n_steps, 3.3, detuning=float(d), reference=ref
            ).fidelity)
    curves = {seq: np.array(f) for seq, f in curves.items()}
    assert curves["dd"][10] >= 0.9  # measured 0.9997 at zero detuning

    def width(y, level=0.8):
        mid = len(dets) // 2
        if y[mid] < level:
            return 0.0
        lo = hi = mid
        while lo > 0 and y[lo - 1] >= level:
            lo -= 1
        while hi < len(dets) - 1 and y[hi + 1] >= level:
            hi += 1
        out = dets[hi] - dets[lo]
        if lo > 0:
            out += (dets[lo] - dets[lo - 1]) * (y[lo] - level) / (y[lo] - y[lo - 1])
        if hi < len(dets) - 1:
            out += (dets[hi + 1] - dets[hi]) * (y[hi] - level) / (y[hi] - y[hi + 1])
        return out

    # dd holds 0.8 across the whole grid (width 4.0, edge-clipped),
    # plain drops at |detuning| ~ 0.4 (width 0.805)
    assert width(curves["dd"]) >= 2.0 * width(curves["plain"]) > 0.0
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_entropy_split_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    basis = enumerate_sector(12, 2)
    region = (4, 5, 6, 7)
    for _ in range(100):
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        srd = reduced_density(StateVector(vec, ("sector", 12, 2)), region)
        br = entropies(srd)
        assert abs(br.total - (br.number + br.config)) <= 1e-12
        # independent check: assemble the block matrix, eigendecompose
        rho = np.zeros((2 ** len(region),) * 2, dtype=complex)
        for n, block in enumerate(srd.blocks):
            if block is None:
                continue
            idx = np.asarray(enumerate_sector(len(region), n).masks, dtype=np.int64)
            rho[np.ix_(idx, idx)] += srd.probs[n] * block
        evals = np.linalg.eigvalsh(rho)
        evals = evals[evals > 1e-15]
        assert abs(br.total + float(np.sum(evals * np.log(evals)))) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_mutual_information_contrast():
    t0 = time.perf_counter()
    times = np.linspace(1.0, 3.0, 9)

    def averaged(delta, separation):
        p = ModelParams(L=20, alpha=ALPHA, delta=delta)
        H = sector_hamiltonian(p, 2)
        psi0 = center_pair_state(p, separation=separation)
        return np.mean(
            [mutual_information(exact_evolve(H, psi0, float(t))) for t in times]
        )

    for delta, bar, above in ((0.5, 0.20, False), (4.5, 0.50, True)):
        adj = averaged(delta, 1)
        sep = averaged(delta, 2)
        # symmetric relative difference; measured 0.1986 and 0.5279
        contrast = abs(adj - sep) / ((adj + sep) / 2.0)
        assert (contrast > bar) == above
    assert time.perf_counter() - t0 < 300.0


def test_criterion_11_jackknife_coverage():
    t0 = time.perf_counter()
    p = ModelParams(L=10, alpha=ALPHA, delta=2.0)
    psi = exact_evolve(sector_hamiltonian(p, 2), center_pair_state(p), 2.0)
    prob = np.abs(psi.data) ** 2
    occ = enumerate_sector(10, 2).occupations
    pupp = np.array(
        [
            prob[(occ == s).any(axis=1) & (occ == s + 1).any(axis=1)].sum()
            for s in range(9)
        ]
    )
    from magnonlab.probes import bs_participation

    exact = bs_participation(pupp, 10)
    hits = 0
    for rep in range(100):
        snaps = sample_snapshots(psi, 1500, seed=(7, rep))
        est, err = jackknife(estimate_participation, snaps)
        hits += abs(est - exact) <= err
    assert 60 <= hits <= 76  # measured 68
    assert time.perf_counter() - t0 < 300.0


def test_criterion_12_conservation_suite():
    t0 = time.perf_counter()
    # full-space Krylov run on a 0..3 magnon mixture
    p = ModelParams(L=8, alpha=ALPHA, delta=2.0)
    H = kron_hamiltonian(p)
    ndiag = number_operator(8).diagonal()
    rng = np.random.default_rng(3)
    vec = np.zeros(2**8, dtype=complex)
    for n in range(4):
        idx = np.asarray(enumerate_sector(8, n).masks, dtype=np.int64)
        comp = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        vec[idx] = comp / np.linalg.norm(comp)
    vec /= np.linalg.norm(vec)
    sector_idx = [
        np.asarray(enumerate_sector(8, n).masks, dtype=np.int64) for n in range(9)
    ]
    n0 = float(np.real(np.vdot(vec, ndiag * vec)))
    w0 = [float(np.sum(np.abs(vec[idx]) ** 2)) for idx in sector_idx]
    for t in (0.7, 2.3, 5.0):
        out = krylov_evolve(H, vec, t)
        assert abs(float(np.real(np.vdot(out, ndiag * out))) - n0) <= 1e-10
        for idx, w in zip(sector_idx, w0):
            assert abs(float(np.sum(np.abs(out[idx]) ** 2)) - w) <= 1e-10

    # one magnon on the ring: the zz part only shifts a global phase,
    # site probabilities cannot depend on delta
    trajs = []
    for delta in (0.0, 1.0, 3.0):
        pr = ModelParams(L=50, alpha=ALPHA, delta=delta, boundary="ring")
        Hr = sector_hamiltonian(pr, 1)
        psi0 = sector_state_from_sites(pr, [25])
        trajs.append(
            np.array(
                [np.abs(exact_evolve(Hr, psi0, t).data) ** 2 for t in (1.0, 2.5, 4.0)]
            )
        )
    for other in trajs[1:]:
        assert np.max(np.abs(other - trajs[0])) <= 1e-10
    assert time.perf_counter() - t0 < 30.0
