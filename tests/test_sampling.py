import functools
from dataclasses import replace

import numpy as np
import pytest

from magnonlab.evolve import exact_evolve, floquet_evolve, propagate
from magnonlab.model import ModelParams, StateVector, sector_hamiltonian
from magnonlab.probes import bs_participation, center_pair_state, quench_projectors
from magnonlab.sampling import (
    DEFAULT_SNAPSHOTS,
    SnapshotSet,
    estimate_participation,
    estimate_pup,
    estimate_pupp,
    jackknife,
    load_snapshots,
    postselect,
    sample_snapshots,
    save_snapshots,
)

ROOT_SEED = 20260816


def evolved_pair_state(L=10, delta=2.0, tJ=2.0):
    p = ModelParams(L=L, alpha=1.4, delta=delta)
    return p, exact_evolve(sector_hamiltonian(p, 2), center_pair_state(p), tJ)


def exact_profiles(psi, L):
    """Per-site and per-pair probabilities straight from the amplitudes."""
    from magnonlab.model import enumerate_sector

    prob = np.abs(psi.data) ** 2
    occ = enumerate_sector(L, psi.basis[2]).occupations
    pup = np.array([prob[(occ == s).any(axis=1)].sum() for s in range(L)])
    pupp = np.array([
        prob[(occ == s).any(axis=1) & (occ == s + 1).any(axis=1)].sum()
        for s in range(L - 1)
    ])
    return pup, pupp


def test_basis_state_snapshots_identical():
    p = ModelParams(L=6)
    psi = center_pair_state(p)
    snaps = sample_snapshots(psi, 50, seed=1, params=p, t_J=0.0)
    assert snaps.bits.shape == (50, 6)
    assert len(np.unique(snaps.bits, axis=0)) == 1
    assert snaps.bits[0].sum() == 2
    assert snaps.delta == 0.0 and snaps.t_J == 0.0


def test_two_config_split_within_binomial_bounds():
    vec = np.zeros(16, dtype=complex)
    vec[0b0011] = vec[0b1100] = 1 / np.sqrt(2)
    psi = StateVector(vec, ("full", 4))
    snaps = sample_snapshots(psi, 10_000, seed=7)
    first = (snaps.bits[:, 0] == 1).sum()
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(first - 5000) < 4 * sigma


def test_pup_estimate_converges_as_root_n():
    _, psi = evolved_pair_state()
    pup_exact, _ = exact_profiles(psi, 10)
    errs = []
    for N in (400, 1600, 6400, 25600):
        snaps = sample_snapshots(psi, N, seed=(ROOT_SEED, N))
        errs.append(np.sqrt(np.mean((estimate_pup(snaps) - pup_exact) ** 2)))
    slope = np.polyfit(np.log([400, 1600, 6400, 25600]), np.log(errs), 1)[0]
    assert -0.75 < slope < -0.3


def test_snapshots_deterministic_and_streams_independent():
    _, psi = evolved_pair_state()
    a = sample_snapshots(psi, 200, seed=(5, 0))
    b = sample_snapshots(psi, 200, seed=(5, 0))
    c = sample_snapshots(psi, 200, seed=(5, 1))
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)


def test_unnormalized_state_rejected():
    vec = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        sample_snapshots(StateVector(vec, ("full", 2)), 10, seed=0)


def test_postselect_sector_pure_keeps_everything():
    _, psi = evolved_pair_state()
    snaps = sample_snapshots(psi, 500, seed=3)
    kept = postselect(snaps, 2)
    assert kept.retention == 1.0
    assert kept.postselected == 2
    # post-selection commutes with estimation on sector-pure states
    assert np.array_equal(estimate_pupp(snaps), estimate_pupp(kept))


def test_postselect_quantifies_floquet_number_leakage():
    p = ModelParams(L=6, alpha=1.4, delta=2.0)
    vec = np.zeros(64, dtype=complex)
    vec[0b001100] = 1.0
    state = floquet_evolve("dd", p, StateVector(vec, ("full", 6)), n_steps=16, t_eff=2.0)
    prob = np.abs(state.data) ** 2
    counts = sum(((np.arange(64) >> i) & 1) for i in range(6))
    p2_exact = prob[counts == 2].sum()
    assert p2_exact < 0.99  # coarse pulsing leaks magnon number

    snaps = sample_snapshots(state, 4000, seed=11)
    kept = postselect(snaps, 2)
    sigma = np.sqrt(p2_exact * (1 - p2_exact) / 4000)
    assert kept.retention < 1.0
    assert abs(kept.retention - p2_exact) < 4 * sigma
    assert np.all(kept.bits.sum(axis=1) == 2)


def test_postselect_empty_is_flagged_and_estimators_refuse():
    _, psi = evolved_pair_state()
    snaps = sample_snapshots(psi, 100, seed=2)
    empty = postselect(snaps, 5)
    assert empty.empty and empty.retention == 0.0
    with pytest.raises(ValueError, match="no snapshots"):
        estimate_pup(empty)
    with pytest.raises(ValueError, match="no snapshots"):
        jackknife(estimate_participation, empty)


def test_wrong_count_in_postselected_set_rejected():
    bits = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="wrong magnon"):
        SnapshotSet(bits=bits, L=3, seed=0, n_total=2, postselected=2)


def test_jackknife_constant_estimator_zero_error():
    # every snapshot of a basis state is the same adjacent pair
    snaps = sample_snapshots(center_pair_state(ModelParams(L=10)), 64, seed=4)
    mean, err = jackknife(estimate_participation, snaps)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_jackknife_mean_estimator_matches_sem_exactly():
    _, psi = evolved_pair_state()
    snaps = sample_snapshots(psi, 128, seed=9)
    x = snaps.bits[:, 4].astype(float)
    mean, err = jackknife(estimate_pup, snaps)
    assert mean[4] == pytest.approx(x.mean(), abs=1e-12)
    assert err[4] == pytest.approx(x.std(ddof=1) / np.sqrt(len(x)), abs=1e-12)


def test_jackknife_needs_two_snapshots():
    snaps = SnapshotSet(bits=np.ones((1, 4), dtype=np.uint8) * 0, L=4, seed=0, n_total=1)
    with pytest.raises(ValueError, match="at least 2"):
        jackknife(estimate_pup, snaps)


def test_jackknife_participation_coverage_near_68_percent():
    p, psi = evolved_pair_state()
    _, pupp_exact = exact_profiles(psi, 10)
    part_exact = bs_participation(pupp_exact, 10)
    hits = 0
    for rep in range(100):
        snaps = sample_snapshots(psi, 300, seed=(ROOT_SEED, rep))
        est, err = jackknife(estimate_participation, snaps)
        hits += abs(est - part_exact) < err
    assert 58 <= hits <= 78  # one-sigma coverage, binomial spread


def _closed_form_sets():
    p = ModelParams(L=20, alpha=1.4, delta=2.0)
    psi = exact_evolve(sector_hamiltonian(p, 2), center_pair_state(p), 1.0)
    kept = postselect(sample_snapshots(psi, 1500, seed=(ROOT_SEED, 0)), 2)
    rng = np.random.default_rng(5)
    bits = (rng.random((40, 8)) < 0.4).astype(np.uint8)
    bits[:, 3] = 0  # site 4 never up
    never_up = SnapshotSet(bits=bits, L=8, seed=0, n_total=40)
    two = SnapshotSet(bits=np.array([[1, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8),
                      L=4, seed=0, n_total=2)
    return {"postselected_L20": kept, "site_never_up": never_up, "N2": two}


@pytest.mark.parametrize("name", ["postselected_L20", "site_never_up", "N2"])
@pytest.mark.parametrize("estimator",
                         [estimate_pup, estimate_pupp, estimate_participation])
def test_jackknife_closed_form_matches_delete_one_loop(estimator, name):
    snaps = _closed_form_sets()[name]
    fast = jackknife(estimator, snaps)
    # the textbook form: re-run the estimator on each delete-one subset
    N = snaps.n_retained
    full = np.asarray(estimator(snaps), dtype=float)
    parts = np.array([estimator(replace(snaps, bits=np.delete(snaps.bits, i, axis=0)))
                      for i in range(N)], dtype=float)
    mean_parts = parts.mean(axis=0)
    loop = (N * full - (N - 1) * mean_parts,
            np.sqrt((N - 1) / N * np.sum((parts - mean_parts) ** 2, axis=0)))
    for got, want in zip(fast, loop):
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-15
    if name == "site_never_up" and estimator is not estimate_participation:
        sites = [3] if estimator is estimate_pup else [2, 3]
        assert np.all(fast[1][sites] == 0.0)


def test_jackknife_wrapped_estimator_keeps_linear_path():
    _, psi = evolved_pair_state()
    snaps = sample_snapshots(psi, 200, seed=6)
    calls = []

    @functools.wraps(estimate_pupp)
    def counted(s):
        calls.append(s.n_retained)
        return estimate_pupp(s)

    assert np.array_equal(jackknife(counted, snaps)[1],
                          jackknife(estimate_pupp, snaps)[1])
    assert calls == []  # the declaration is read, the estimator never called


def test_jackknife_rejects_an_undeclared_estimator():
    _, psi = evolved_pair_state()
    snaps = sample_snapshots(psi, 20, seed=6)
    with pytest.raises(TypeError, match="declares no column means"):
        jackknife(lambda s: estimate_pup(s), snaps)


def test_estimators_on_exact_state_match_quench_projector_maps():
    p = ModelParams(L=10, alpha=1.4, delta=2.0)
    psi0 = center_pair_state(p)
    times = [0.0, 0.7, 2.0]
    site, pair = quench_projectors(psi0, p, times)
    for i, data in enumerate(propagate(sector_hamiltonian(p, 2), psi0, times)):
        psi = StateVector(data, psi0.basis)
        assert np.max(np.abs(estimate_pup(psi) - site.values[i])) <= 1e-14
        assert np.max(np.abs(estimate_pupp(psi) - pair.values[i])) <= 1e-14
        assert estimate_participation(psi) == pytest.approx(
            bs_participation(pair.values[i], 10), abs=1e-14)
    with pytest.raises(ValueError, match="sector StateVector"):
        estimate_pup(StateVector(np.eye(4)[0], ("full", 2)))


def test_pair_estimator_unbiased_over_seeds():
    _, psi = evolved_pair_state()
    _, pupp_exact = exact_profiles(psi, 10)
    ests = np.array([
        estimate_pupp(sample_snapshots(psi, 400, seed=(77, r))) for r in range(100)
    ])
    se = ests.std(axis=0, ddof=1) / np.sqrt(100)
    assert np.all(np.abs(ests.mean(axis=0) - pupp_exact) < 3 * se + 1e-12)


def test_snapshot_file_round_trip(tmp_path):
    p, psi = evolved_pair_state()
    raw = sample_snapshots(psi, 40, seed=(13, 2), params=p, t_J=2.0)
    kept = postselect(raw, 2)
    path = tmp_path / "snaps.txt"
    save_snapshots(path, [raw, kept])
    lines = path.read_text().splitlines()
    n_raw = raw.n_retained
    assert lines[1: 1 + n_raw] == [
        "".join("1" if b else "0" for b in row) for row in raw.bits]
    back = load_snapshots(path)
    assert len(back) == 2
    for orig, loaded in zip([raw, kept], back):
        assert np.array_equal(orig.bits, loaded.bits)
        assert loaded.seed == (13, 2)
        assert loaded.metadata() == orig.metadata()


def test_snapshot_file_rejects_characters_other_than_bits(tmp_path):
    snaps = SnapshotSet(bits=np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8),
                        L=3, seed=(1, 0), n_total=2, t_J=0.0, delta=0.0,
                        alpha=1.4, postselected=None)
    path = tmp_path / "snaps.txt"
    save_snapshots(path, snaps)
    meta = path.read_text().splitlines()[0]
    assert load_snapshots(path)[0].bits.tolist() == [[1, 0, 0], [0, 0, 1]]
    path.write_text(meta + "\n1x0\n2a1\n")
    with pytest.raises(ValueError, match="corrupt snapshot block"):
        load_snapshots(path)


def test_default_snapshot_budget_matches_experiment():
    assert DEFAULT_SNAPSHOTS == 1500
