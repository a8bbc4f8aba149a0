import numpy as np
import pytest

from magnonlab import entropy
from magnonlab.entropy import (
    SectorResolvedDensity,
    config_mutual_proxy,
    config_mutual_proxy_exact,
    entropies,
    mutual_information,
    reduced_densities,
    reduced_density,
    region_entropies,
    subsystem_entropy,
)
from magnonlab.evolve import exact_evolve, propagate
from magnonlab.model import (
    ModelParams,
    StateVector,
    enumerate_sector,
    sector_hamiltonian,
    sector_state_from_sites,
)
from magnonlab.sampling import SnapshotSet, postselect, sample_snapshots


def random_sector_state(L, n, seed):
    rng = np.random.default_rng(seed)
    dim = enumerate_sector(L, n).dim
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v), ("sector", L, n))


def evolved_state(L=10, delta=2.0, tJ=1.5, sites=None):
    p = ModelParams(L=L, alpha=1.4, delta=delta)
    psi0 = sector_state_from_sites(p, sites or (L // 2, L // 2 + 1))
    return exact_evolve(sector_hamiltonian(p, 2), psi0, tJ)


def evolved_series(L=10, delta=2.0, times=np.linspace(0.5, 3.0, 6)):
    """A sector StateVector holding the initial product state, then one evolved
    state per time."""
    p = ModelParams(L=L, alpha=1.4, delta=delta)
    psi0 = sector_state_from_sites(p, (L // 2, L // 2 + 1))
    evolved = propagate(sector_hamiltonian(p, 2), psi0, times)
    return StateVector(np.vstack([psi0.data, evolved]), psi0.basis)


def assemble_block_diagonal(srd):
    """Embed the blocks into the full 2^|region| space."""
    dim = 1 << len(srd.region)
    rho = np.zeros((dim, dim), dtype=complex)
    for n, block in enumerate(srd.blocks):
        if block is None:
            continue
        idx = np.asarray(enumerate_sector(len(srd.region), n).masks, dtype=np.int64)
        rho[np.ix_(idx, idx)] += srd.probs[n] * block
    return rho


def brute_force_partial_trace(psi, region, L):
    """Dense full-space partial trace, O(4^L); oracle for small L."""
    cols = [s - 1 for s in region]
    region_mask = sum(1 << c for c in cols)
    full = np.zeros(1 << L, dtype=complex)
    masks = np.asarray(enumerate_sector(L, psi.basis[2]).masks, dtype=np.int64)
    full[masks] = psi.data
    dim = 1 << len(region)
    rho = np.zeros((dim, dim), dtype=complex)
    packed = np.array([
        sum(((m >> c) & 1) << i for i, c in enumerate(cols)) for m in range(1 << L)
    ])
    kept = np.arange(1 << L) & ~region_mask
    for m1 in np.flatnonzero(np.abs(full) > 0):
        match = kept == kept[m1]
        rho[packed[m1], packed[match]] += full[m1] * np.conj(full[match])
    return rho


def dict_loop_reduced_density(psi, region):
    """(probs, blocks) by grouping the sector basis mask by mask in a dict."""
    L, N = psi.basis[1], psi.basis[2]
    cols = [s - 1 for s in region]
    basis = enumerate_sector(L, N)
    probs, blocks = np.zeros(N + 1), [None] * (N + 1)
    for n in range(min(len(region), N) + 1):
        sub = enumerate_sector(len(region), n)
        a_index = {int(m): i for i, m in enumerate(sub.masks)}
        c_index, entries = {}, {}
        for row, m in enumerate(basis.masks):
            m = int(m)
            a_key = sum(((m >> c) & 1) << i for i, c in enumerate(cols))
            if a_key not in a_index:
                continue
            c_key = m & ~sum(1 << c for c in cols)
            c_col = c_index.setdefault(c_key, len(c_index))
            entries[(a_index[a_key], c_col)] = psi.data[row]
        if not entries:
            continue
        M = np.zeros((sub.dim, len(c_index)), dtype=complex)
        for (i, j), amp in entries.items():
            M[i, j] = amp
        rho = M @ M.conj().T
        p = float(np.trace(rho).real)
        if p > 1e-15:
            probs[n], blocks[n] = p, rho / p
    return probs, blocks


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("region", [(2, 5, 9), (8, 9, 10), (9, 5, 2)])
def test_grouped_partial_trace_matches_dict_loop(region, n):
    psi = random_sector_state(10, n, seed=10 * n + len(region))
    srd = reduced_density(psi, region)
    probs, blocks = dict_loop_reduced_density(psi, region)
    assert np.abs(srd.probs - probs).max() <= 1e-14
    for got, want in zip(srd.blocks, blocks):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.abs(got - want).max() <= 1e-14


def test_region_past_63_sites_matches_its_complement():
    # region keys once wrapped in int64 past 63 sites (KeyError at L=80);
    # no configuration puts both magnons in the region, whose 2-magnon
    # block would be a dense 2415 x 2415 matrix
    p = ModelParams(L=80, alpha=1.4)
    psi = sum(sector_state_from_sites(p, sites).data * amp
              for sites, amp in (((65, 75), 0.6), ((69, 72), 0.48j), ((72, 78), 0.64)))
    psi = StateVector(psi, ("sector", 80, 2))
    region = tuple(range(1, 71))
    complement = tuple(range(71, 81))
    s_region = subsystem_entropy(psi, region)
    assert s_region > 0.5
    assert abs(s_region - subsystem_entropy(psi, complement)) <= 1e-12


def test_product_state_single_pure_block():
    p = ModelParams(L=6, alpha=1.4)
    psi = sector_state_from_sites(p, (1, 2))
    srd = reduced_density(psi, (1, 2))
    assert srd.probs[2] == pytest.approx(1.0, abs=1e-12)
    e = entropies(srd)
    assert e.total == pytest.approx(0.0, abs=1e-12)
    assert e.number == pytest.approx(0.0, abs=1e-12)


def test_bell_pair_across_cut():
    bell = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), ("sector", 2, 1))
    srd = reduced_density(bell, (1,))
    assert np.allclose(srd.probs, [0.5, 0.5])
    e = entropies(srd)
    assert e.number == pytest.approx(np.log(2), abs=1e-12)
    assert e.config == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("region", [(3, 4, 5), (1, 2), (2, 5, 7)])
def test_partial_trace_matches_brute_force(region):
    psi = random_sector_state(8, 2, seed=42)
    srd = reduced_density(psi, region)
    want = brute_force_partial_trace(psi, region, 8)
    assert np.abs(assemble_block_diagonal(srd) - want).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_number_config_split_is_exact(seed):
    psi = random_sector_state(8, 2, seed=seed)
    srd = reduced_density(psi, (3, 4, 5))
    e = entropies(srd)
    evals = np.linalg.eigvalsh(assemble_block_diagonal(srd))
    evals = evals[evals > 1e-15]
    assert e.total == pytest.approx(-np.sum(evals * np.log(evals)), abs=1e-12)
    assert e.total == pytest.approx(e.number + e.config, abs=1e-12)


def test_subsystem_entropy_diagonalizes_each_block_once(monkeypatch):
    # the sign check and the entropy read one eigvalsh per nonzero block
    psi = evolved_state()
    nonzero = sum(b is not None for b in reduced_density(psi, (4, 5, 6)).blocks)
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    subsystem_entropy(psi, (4, 5, 6))
    assert nonzero == 3 and len(calls) == nonzero


@pytest.mark.parametrize("region", [(4, 5, 6), (2, 3, 4, 7, 8, 9), (1, 10)])
def test_stacked_partial_trace_equals_one_state_calls(region):
    series = evolved_series()
    stacked = list(reduced_densities(series, region))
    assert len(stacked) == len(series.data)
    for srd, data in zip(stacked, series.data):
        one = reduced_density(StateVector(data, series.basis), region)
        assert np.array_equal(srd.probs, one.probs)
        for got, want in zip(srd.blocks, one.blocks):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)
    singles = [subsystem_entropy(StateVector(data, series.basis), region)
               for data in series.data]
    assert subsystem_entropy(series, region).tolist() == singles
    # the product state leaves blocks empty that the evolved states fill
    assert sum(b is None for b in stacked[0].blocks) > sum(b is None for b in stacked[-1].blocks)
    assert singles[0] == 0.0 and min(singles[1:]) > 0.0


def test_stacked_entropy_of_a_region_equals_its_complement():
    series = evolved_series(L=12, delta=0.5)
    region = (2, 5, 6, 7, 11)
    complement = tuple(s for s in range(1, 13) if s not in region)
    s_region = subsystem_entropy(series, region)
    assert np.abs(s_region - subsystem_entropy(series, complement)).max() <= 1e-12
    assert s_region[1:].min() > 0.1


def test_one_row_stacks_give_identical_entropies(monkeypatch):
    series = evolved_series()
    whole = region_entropies(series, (2, 3, 4), (7, 8, 9))
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(entropy, "TRACE_STACK_BYTES", 1)
    split = region_entropies(series, (2, 3, 4), (7, 8, 9))
    assert set(calls) == {1}  # a budget below one row still traces every row
    for got, want in zip(split, whole):
        assert got.tolist() == want.tolist()


def test_density_validation_rejects_bad_blocks():
    def density(probs, blocks):
        return SectorResolvedDensity((1,), np.array(probs), blocks,
                                     [np.linalg.eigvalsh(b) for b in blocks])

    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="sum"):
        density([0.4, 0.4], [good, good])
    with pytest.raises(ValueError, match="not normalized"):
        density([1.0], [np.eye(2)])
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="negative"):
        density([1.0], [neg])


def test_region_validation():
    psi = evolved_state()
    with pytest.raises(ValueError, match="outside"):
        reduced_density(psi, (9, 10, 11))
    with pytest.raises(ValueError, match="repeats"):
        reduced_density(psi, (3, 3))
    with pytest.raises(ValueError, match="overlap"):
        mutual_information(psi, (2, 3, 4), (4, 5, 6))


def test_mutual_information_product_state_zero():
    p = ModelParams(L=10, alpha=1.4)
    psi = sector_state_from_sites(p, (2, 3))
    assert mutual_information(psi, (5, 6), (8, 9)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_pure_halves_doubles_entropy():
    psi = evolved_state(L=8, sites=(4, 5))
    sa = subsystem_entropy(psi, (1, 2, 3, 4))
    assert mutual_information(psi, (1, 2, 3, 4), (5, 6, 7, 8)) == pytest.approx(
        2 * sa, abs=1e-10
    )


@pytest.mark.parametrize("tJ", [0.5, 1.5, 3.0])
def test_mutual_information_bounds(tJ):
    psi = evolved_state(tJ=tJ)
    A, B = (2, 3, 4), (7, 8, 9)
    I = mutual_information(psi, A, B)
    sa, sb = subsystem_entropy(psi, A), subsystem_entropy(psi, B)
    assert I >= -1e-10
    assert I <= 2 * min(sa, sb) + 1e-10


def dict_joint_config_probs(bits_or_state, region_cols, L):
    """Oracle: {n: (joint, marg_a, marg_b)} built configuration by configuration.

    Keys are packed region / complement configurations; probabilities are
    unconditional, so each sector's marginals sum to p(n).
    """
    comp_cols = [c for c in range(L) if c not in region_cols]
    out = {}

    def add(n, a_key, b_key, p):
        joint, ma, mb = out.setdefault(n, ({}, {}, {}))
        joint[(a_key, b_key)] = joint.get((a_key, b_key), 0.0) + p
        ma[a_key] = ma.get(a_key, 0.0) + p
        mb[b_key] = mb.get(b_key, 0.0) + p

    if isinstance(bits_or_state, StateVector):
        basis = enumerate_sector(L, bits_or_state.basis[2])
        prob = np.abs(bits_or_state.data) ** 2
        for row, m in enumerate(basis.masks):
            m = int(m)
            a_key = sum(((m >> c) & 1) << i for i, c in enumerate(region_cols))
            b_key = sum(((m >> c) & 1) << i for i, c in enumerate(comp_cols))
            add(int(a_key).bit_count(), a_key, b_key, float(prob[row]))
    else:
        bits = bits_or_state
        w = 1.0 / len(bits)
        a_pack = bits[:, region_cols] @ (1 << np.arange(len(region_cols)))
        b_pack = bits[:, comp_cols] @ (1 << np.arange(len(comp_cols)))
        ns = bits[:, region_cols].sum(axis=1)
        for n, a_key, b_key in zip(ns, a_pack, b_pack):
            add(int(n), int(a_key), int(b_key), w)
    return out


def dict_surrogate_and_number(grouped):
    """Oracle: (S_N, S~_C) with every bracket term evaluated explicitly."""
    s_num, s_conf = 0.0, 0.0
    for _, (joint, ma, mb) in sorted(grouped.items()):
        p_n = sum(ma.values())
        if p_n <= 0:
            continue
        s_num -= p_n * np.log(p_n)
        term = sum(joint.values()) - sum(ma.values()) * sum(mb.values())
        s_conf += p_n * term
    return s_num, s_conf


def dict_proxy(bits_or_state, regions, L, n_retained=None):
    """Oracle: (value, config_only, flagged) of the dict-based proxy."""
    number, surrogate, flagged = {}, {}, False
    for name, sites in zip(("A", "B", "AB"), regions):
        grouped = dict_joint_config_probs(bits_or_state, [s - 1 for s in sites], L)
        if n_retained is not None:
            counts = [round(sum(ma.values()) * n_retained) for _, ma, _ in grouped.values()]
            flagged |= any(0 < c < 10 for c in counts)
        number[name], surrogate[name] = dict_surrogate_and_number(grouped)
    value = sum(number[r] + surrogate[r] for r in "AB") - number["AB"] - surrogate["AB"]
    config_only = surrogate["A"] + surrogate["B"] - surrogate["AB"]
    return value, config_only, flagged


def test_proxy_exact_term_identity():
    # summed over full configuration sets the bracket telescopes to
    # p(n) - p(n)^2, so the surrogate is sum p(n)^2 (1 - p(n))
    psi = evolved_state()
    grouped = dict_joint_config_probs(psi, [1, 2, 3], 10)
    _, s_conf = dict_surrogate_and_number(grouped)
    pn = [sum(ma.values()) for _, (_, ma, _) in sorted(grouped.items())]
    closed = sum(q * q * (1 - q) for q in pn)
    assert s_conf == pytest.approx(closed, abs=1e-12)
    est = config_mutual_proxy_exact(psi, (2, 3, 4), (7, 8, 9))
    assert est.surrogate_part["A"] == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("delta, tJ", [(0.5, 0.5), (2.0, 1.5), (4.5, 3.0)])
def test_proxy_matches_dict_oracle(delta, tJ):
    psi = evolved_state(L=12, delta=delta, tJ=tJ)
    regions = ((3, 4, 5), (8, 9, 10), (3, 4, 5, 8, 9, 10))
    exact = config_mutual_proxy_exact(psi, regions[0], regions[1])
    assert config_mutual_proxy(psi, regions[0], regions[1]) == exact
    value, config_only, _ = dict_proxy(psi, regions, 12)
    assert abs(exact.value - value) <= 1e-12
    assert abs(exact.config_only - config_only) <= 1e-12
    snaps = postselect(sample_snapshots(psi, 1500, seed=(4, 1)), 2)
    est = config_mutual_proxy(snaps, regions[0], regions[1])
    value, config_only, flagged = dict_proxy(snaps.bits, regions, 12,
                                             snaps.n_retained)
    assert abs(est.value - value) <= 1e-12
    assert abs(est.config_only - config_only) <= 1e-12
    assert est.flagged is flagged


def thin_sector_snapshots(n_thin=3):
    bits = np.zeros((40, 6), dtype=np.uint8)
    bits[:, 0] = 1
    bits[:, 3] = 1
    bits[:n_thin, :] = 0
    bits[:n_thin, 1] = 1  # n_thin snapshots put a magnon inside region A
    bits[:n_thin, 3] = 1
    return SnapshotSet(bits=bits, L=6, seed=0, n_total=40)


@pytest.mark.parametrize("n_thin", [3, 9, 10])
def test_proxy_thin_sectors_match_dict_oracle(n_thin):
    snaps = thin_sector_snapshots(n_thin)
    est = config_mutual_proxy(snaps, (2, 3), (5, 6))
    value, config_only, flagged = dict_proxy(
        snaps.bits, ((2, 3), (5, 6), (2, 3, 5, 6)), 6, snaps.n_retained)
    assert flagged is (n_thin < 10) and est.flagged is flagged
    assert abs(est.value - value) <= 1e-12
    assert abs(est.config_only - config_only) <= 1e-12


def test_proxy_plugin_matches_exact_formula_on_frequencies():
    psi = evolved_state()
    snaps = postselect(sample_snapshots(psi, 2000, seed=5), 2)
    est = config_mutual_proxy(snaps, (2, 3, 4), (7, 8, 9))
    # recompute the number parts straight from empirical sector frequencies
    for name, sites in (("A", (2, 3, 4)), ("B", (7, 8, 9))):
        counts = np.bincount(snaps.bits[:, [s - 1 for s in sites]].sum(axis=1))
        freq = counts[counts > 0] / snaps.n_retained
        assert est.number_part[name] == pytest.approx(
            -np.sum(freq * np.log(freq)), abs=1e-12
        )


def test_proxy_converges_to_exact_probabilities():
    psi = evolved_state()
    A, B = (2, 3, 4), (7, 8, 9)
    exact = config_mutual_proxy_exact(psi, A, B)
    errs = []
    for N in (500, 5000, 50000):
        snaps = postselect(sample_snapshots(psi, N, seed=(1, N)), 2)
        errs.append(abs(config_mutual_proxy(snaps, A, B).value - exact.value))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3
    assert exact.flagged is False


def test_proxy_product_state_is_zero():
    p = ModelParams(L=10, alpha=1.4)
    psi = sector_state_from_sites(p, (5, 6))
    snaps = sample_snapshots(psi, 300, seed=9)
    est = config_mutual_proxy(snaps, (2, 3, 4), (7, 8, 9))
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.config_only == pytest.approx(0.0, abs=1e-12)


def test_proxy_flags_thin_sectors():
    snaps = thin_sector_snapshots()
    est = config_mutual_proxy(snaps, (2, 3), (5, 6))
    assert est.flagged is True


def test_proxy_refuses_empty_sets():
    psi = evolved_state()
    empty = postselect(sample_snapshots(psi, 50, seed=3), 7)
    with pytest.raises(ValueError, match="no snapshots"):
        config_mutual_proxy(empty, (2, 3, 4), (7, 8, 9))
