import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import zeta

from magnonlab import spectral
from magnonlab.model import ModelParams, sector_hamiltonian, vacuum_energy
from magnonlab.spectral import (
    DispersionCurve,
    bound_threshold,
    dispersion_one,
    dispersion_two,
    group_velocity_one,
    l4_of_weights,
    open_chain_top_l4,
    phase_diagram,
    quantized_momenta,
    two_magnon_block,
    unfold_relative_weights,
    wavefunction_tails,
)


def partial_sum_dispersion(k, alpha, delta, J=1.0, terms=2_000_000):
    """Direct-summation oracle: large partial sum of the dispersion series.

    Only the oscillatory cosine sum is truncated; its tail is bounded by
    ~2 M^(-alpha)/|sin(k/2)|, below 1e-7 for M = 2e6 and the k used here.
    The constant part is exactly -delta * zeta(alpha), taken from scipy.
    """
    total = 0.0
    chunk = 250_000
    for start in range(1, terms + 1, chunk):
        ell = np.arange(start, min(start + chunk, terms + 1), dtype=float)
        total += np.sum(np.cos(k * ell) / ell**alpha)
    total -= delta * zeta(alpha)
    return 4.0 * J / 3.0 * total


@pytest.mark.parametrize("alpha,delta", [(1.4, 0.0), (1.4, 3.0), (3.0, 1.0)])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, np.pi])
def test_dispersion_infinite_against_partial_sum_oracle(alpha, delta, k):
    p = ModelParams(L=20, alpha=alpha, delta=delta)
    got = dispersion_one(k, p)
    want = partial_sum_dispersion(k, alpha, delta)
    assert got == pytest.approx(want, abs=2e-7)


def test_dispersion_delta_shift_is_k_independent():
    p0 = ModelParams(L=20, alpha=1.4, delta=0.0)
    p3 = ModelParams(L=20, alpha=1.4, delta=3.0)
    ks = np.linspace(0.2, np.pi, 7)
    shift = dispersion_one(ks, p3) - dispersion_one(ks, p0)
    assert np.ptp(shift) < 1e-10 * p0.J


@pytest.mark.parametrize("L", [50, 51, 200])
def test_ring_series_matches_single_magnon_ed(L):
    p = ModelParams(L=L, alpha=1.4, delta=0.7, boundary="ring")
    op = sector_hamiltonian(p, 1)
    evals = np.sort(np.linalg.eigvalsh(op.dense()))
    ks = 2.0 * np.pi * np.minimum(np.arange(L), L - np.arange(L)) / L
    series = dispersion_one(ks, p, mode="ring") + vacuum_energy(p)
    assert np.allclose(np.sort(series), evals, rtol=1e-12, atol=1e-12 * p.J)


def test_group_velocity_matches_numerical_derivative():
    p = ModelParams(L=20, alpha=1.4)
    h = 1e-6
    for k in (0.3, 1.0, 2.5):
        num = (dispersion_one(k + h, p) - dispersion_one(k - h, p)) / (2 * h)
        assert group_velocity_one(k, p) == pytest.approx(num, rel=1e-5)


def test_group_velocity_magnitude_grows_toward_small_k():
    p = ModelParams(L=20, alpha=1.4)
    vs = [abs(group_velocity_one(np.pi / (L + 1), p)) for L in (50, 100, 200, 400)]
    assert all(b > a for a, b in zip(vs, vs[1:]))
    assert group_velocity_one(np.pi, p) == pytest.approx(0.0, abs=1e-10)


def test_group_velocity_is_signed_derivative():
    # dispersion falls away from its k = 0 cusp, so the signed value is negative
    p = ModelParams(L=20, alpha=1.4)
    assert group_velocity_one(0.1, p) < 0


@pytest.mark.parametrize("L", [8, 9, 12, 13])
@pytest.mark.parametrize("delta", [0.0, 3.0])
def test_two_magnon_blocks_isospectral_with_sector_ed(L, delta):
    p = ModelParams(L=L, alpha=1.4, delta=delta, boundary="ring")
    ed = np.sort(np.linalg.eigvalsh(sector_hamiltonian(p, 2).dense()))
    pooled = []
    dims = 0
    for m in range(L):
        block = two_magnon_block(2.0 * np.pi * m / L, p)
        assert np.max(np.abs(block.kinetic - block.kinetic.conj().T)) < 1e-12
        vals, _ = block.eigensystem()
        pooled.extend(vals)
        dims += block.dim
    assert dims == L * (L - 1) // 2
    assert np.allclose(np.sort(pooled), ed, atol=1e-9 * max(1.0, p.J))


def complex_kinetic_reference(k, params):
    """The block's hop matrix as first written: complex phases, folded by hand."""
    L = params.L
    m = int(round(k * L / (2.0 * np.pi))) % L
    x = np.arange(L, dtype=float)
    dc = np.minimum(x, L - x)
    Jc = np.zeros(L)
    Jc[1:] = params.J / dc[1:] ** params.alpha
    dist = np.arange(1, L // 2 + 1)
    if L % 2 == 0 and m % 2 == 1:
        dist = dist[:-1]
    dp = dist[:, None].astype(float)
    d0 = dist[None, :].astype(float)

    def hop(dprime, d):
        s = dprime - d
        ell = np.mod(s, L).astype(int)
        amp = 2.0 / 3.0 * Jc[ell] * (
            np.exp(1j * k * (ell - s / 2.0)) + np.exp(-1j * k * s / 2.0)
        )
        return np.where(ell == 0, 0.0, amp)

    sgn = -1.0 if m % 2 else 1.0
    kin = hop(dp, d0) + sgn * np.where(np.isclose(dp, L / 2.0), 0.0, hop(L - dp, d0))
    c = np.where(np.isclose(dist, L / 2.0), 1.0, np.sqrt(2.0))
    kin = kin * (c[None, :] / c[:, None])
    return 0.5 * (kin + kin.conj().T)


@pytest.mark.parametrize("L", [8, 9, 12, 13, 300])
def test_real_kinetic_matches_complex_reference(L):
    p = ModelParams(L=L, alpha=1.4, delta=2.0, boundary="ring")
    for m in range(L):
        k = 2.0 * np.pi * m / L
        block = two_magnon_block(k, p)
        assert block.kinetic.dtype == np.float64
        ref = complex_kinetic_reference(k, p)
        assert block.kinetic.shape == ref.shape
        assert np.max(np.abs(block.kinetic - ref.real), initial=0.0) <= 1e-13
        # the exact amplitude is real: the reference's imaginary part is
        # its roundoff, which grows with the phase k*l beyond k = pi
        assert np.max(np.abs(ref.imag), initial=0.0) <= (1e-13 if 2 * m <= L else 2e-13)


@pytest.mark.parametrize("L,ms", [(12, range(12)), (13, range(13)), (300, (1, 2, 75, 149, 150))])
@pytest.mark.parametrize("delta", [0.0, 1.5, 4.0])
def test_top_state_is_last_pair_of_full_eigh(L, ms, delta):
    # top_state calls dsyevr with scipy's workspace: the pair scipy's
    # subset eigh gives, byte for byte (dims 149 and 150 at L = 300)
    p = ModelParams(L=L, alpha=1.4, delta=3.0, boundary="ring")
    for m in ms:
        block = two_magnon_block(2.0 * np.pi * m / L, p)
        vals, vecs = block.eigensystem(delta=delta)
        energy, top = block.top_state(delta=delta)
        assert top.shape == (block.dim,)
        assert energy == pytest.approx(vals[-1], abs=1e-12)
        assert abs(np.dot(top, vecs[:, -1])) >= 1.0 - 1e-12
        n = block.dim
        ref_vals, ref_vecs = eigh(block.hamiltonian(delta), subset_by_index=[n - 1, n - 1])
        assert np.array_equal(energy, ref_vals[0])
        assert np.array_equal(top, ref_vecs[:, 0])


@pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
def test_top_state_and_phase_diagram_reject_non_finite_delta(delta):
    p = ModelParams(L=12, alpha=1.4, boundary="ring")
    block = two_magnon_block(2.0 * np.pi / 12, p)
    with pytest.raises(ValueError, match="delta must be finite"):
        block.top_state(delta=delta)
    with pytest.raises(ValueError, match="delta must be finite"):
        phase_diagram(p, deltas=[0.0, delta])


def test_top_state_of_empty_block_is_an_error():
    block = two_magnon_block(np.pi, ModelParams(L=2, boundary="ring"))
    assert block.dim == 0
    with pytest.raises(ValueError, match="empty"):
        block.top_state()
    # numpy's eigh of a 0 x 0 block returns empty arrays, not an error
    with pytest.raises(ValueError, match="empty"):
        block.top_state(subset=False)
    with pytest.raises(ValueError, match="empty"):
        dispersion_two([np.pi], ModelParams(L=2, boundary="ring"))


def counting_solvers(monkeypatch):
    """Count the eigh and the dsyevr solves of TwoMagnonBlock."""
    import scipy.linalg.lapack as lapack

    calls = {"eigh": 0, "dsyevr": 0}
    eigensystem, dsyevr = spectral.TwoMagnonBlock.eigensystem, lapack.dsyevr

    def counting_eigensystem(self, delta=None):
        calls["eigh"] += 1
        return eigensystem(self, delta)

    def counting_dsyevr(*args, **kwargs):
        calls["dsyevr"] += 1
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(spectral.TwoMagnonBlock, "eigensystem", counting_eigensystem)
    monkeypatch.setattr(lapack, "dsyevr", counting_dsyevr)
    return calls


def test_a_small_stage_takes_the_last_pair_of_numpy_eigh(monkeypatch):
    # two_magnon_spectroscopy's ring curve: 9 solves of dim 9
    p = ModelParams(L=18, alpha=1.4, delta=3.0, boundary="ring")
    k = quantized_momenta(18)
    assert len(k) * 9**3 <= spectral.TOP_PAIR_EIGH_DIM3
    calls = counting_solvers(monkeypatch)
    curve = dispersion_two(k, p)
    assert calls == {"eigh": 9, "dsyevr": 0}
    tops = [two_magnon_block(q, p).eigensystem() for q in k]
    assert np.array_equal(curve.energy, [v[-1] - vacuum_energy(p) for v, _ in tops])
    blocks = [two_magnon_block(q, p) for q in k]
    assert np.array_equal(curve.l4, [l4_of_weights(unfold_relative_weights(b, vecs[:, -1]))
                                     for b, (_, vecs) in zip(blocks, tops)])


def test_a_large_stage_keeps_the_dsyevr_pairs(monkeypatch):
    # figS5's 40 momenta of L=300 (dims 149 and 150) at three deltas
    p = ModelParams(L=300, alpha=1.4, boundary="ring")
    k = quantized_momenta(300)[np.round(np.linspace(0, 149, 40)).astype(int)]
    deltas = np.array([0.0, 2.0, 4.0])
    assert len(k) * len(deltas) * 150**3 > spectral.TOP_PAIR_EIGH_DIM3
    calls = counting_solvers(monkeypatch)
    pd = phase_diagram(p, k_values=k, deltas=deltas)
    assert calls == {"eigh": 0, "dsyevr": len(k) * len(deltas)}
    blocks = [two_magnon_block(q, p) for q in k]
    with spectral._blas_threads(150):  # the thread count phase_diagram solves at
        want = [[l4_of_weights(unfold_relative_weights(b, b.top_state(dl)[1]))
                 for dl in deltas] for b in blocks]
    assert np.array_equal(pd.l4, want)


def test_top_state_raises_on_lapack_failure(monkeypatch):
    import scipy.linalg.lapack as lapack

    block = two_magnon_block(2.0 * np.pi / 12, ModelParams(L=12, boundary="ring"))
    monkeypatch.setattr(lapack, "dsyevr", lambda a, **kw: (None, None, 0, None, 3))
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        block.top_state()


def unfold_reference_loop(block, vec):
    """The unfolding as first written, one distance at a time."""
    L = block.L
    w = np.zeros(L - 1)
    for d, amp in zip(block.distances, vec):
        p = abs(amp) ** 2
        if 2 * d == L:
            w[d - 1] = p
        else:
            w[d - 1] += 0.5 * p
            w[L - d - 1] += 0.5 * p
    return w


@pytest.mark.parametrize("L,m", [(12, 2), (12, 3), (13, 4), (13, 5)])
def test_vectorised_unfolding_equals_loop(L, m):
    # even L: even m keeps the antipode d = L/2, odd m drops it; odd L has none
    p = ModelParams(L=L, alpha=1.4, delta=3.0, boundary="ring")
    block = two_magnon_block(2.0 * np.pi * m / L, p)
    assert np.any(2 * block.distances == L) == (L % 2 == 0 and m % 2 == 0)
    rng = np.random.default_rng(L + m)
    real = rng.normal(size=block.dim)
    cplx = real + 1j * rng.normal(size=block.dim)
    for vec in (block.top_state()[1], real):
        assert np.array_equal(unfold_relative_weights(block, vec),
                              unfold_reference_loop(block, vec))
    # |z| of a complex scalar and of an array element may round apart
    assert np.allclose(unfold_relative_weights(block, cplx),
                       unfold_reference_loop(block, cplx), rtol=1e-15, atol=0.0)


def test_block_requires_ring_and_quantized_k():
    with pytest.raises(ValueError, match="ring"):
        two_magnon_block(np.pi, ModelParams(L=10, boundary="open"))
    p = ModelParams(L=10, boundary="ring")
    with pytest.raises(ValueError, match="ring momentum"):
        two_magnon_block(0.3, p)


def test_l4_norm_trivial_cases():
    def l4(psi):
        return l4_of_weights(np.abs(psi) ** 2)

    assert l4(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    L = 40
    uniform = np.ones(L - 1) / np.sqrt(L - 1)
    assert l4(uniform) == pytest.approx(1.0 / (L - 1))


def test_unfolded_weights_sum_to_one():
    p = ModelParams(L=12, alpha=1.4, delta=3.0, boundary="ring")
    for m in (1, 2, 6):
        block = two_magnon_block(2 * np.pi * m / 12, p)
        _, vecs = block.eigensystem()
        w = unfold_relative_weights(block, vecs[:, -1])
        assert w.sum() == pytest.approx(1.0)
        assert len(w) == 11


def test_dispersion_two_bound_state_at_pi_large_delta():
    p = ModelParams(L=120, alpha=1.4, delta=3.0, boundary="ring")
    curve = dispersion_two([2 * np.pi / 120, np.pi], p)
    assert isinstance(curve, DispersionCurve)
    assert not curve.bound[0]  # long-wavelength state stays extended
    assert curve.bound[1]
    assert curve.l4[1] > 10 * bound_threshold(120)


def test_dispersion_two_energy_agrees_with_sector_ed():
    # global sector top lives in the k = 0 block here, so scan all momenta
    p = ModelParams(L=10, alpha=1.4, delta=3.0, boundary="ring")
    ed_top = np.linalg.eigvalsh(sector_hamiltonian(p, 2).dense())[-1]
    curve = dispersion_two(2 * np.pi * np.arange(10) / 10, p)
    assert curve.energy.max() + vacuum_energy(p) == pytest.approx(ed_top, abs=1e-10)


def test_phase_diagram_onset_and_small_k_exclusion():
    p = ModelParams(L=60, alpha=1.4, boundary="ring")
    deltas = np.arange(0.0, 4.01, 0.25)
    pd = phase_diagram(p, deltas=deltas)
    onset = pd.onset_delta()
    assert onset is not None and 1.5 <= onset <= 3.0
    # the smallest quantized momentum binds last: unbound well past onset,
    # even where larger momenta are already deep in the bound regime
    past_onset = deltas <= 2.5
    assert not pd.bound[0, past_onset].any()
    assert pd.bound[:, past_onset].any()
    assert pd.l4.shape == (len(pd.k), len(pd.delta))


def test_phase_diagram_matches_plain_top_state_loop():
    p = ModelParams(L=40, alpha=1.4, boundary="ring")
    deltas = np.linspace(0.0, 4.0, 9)
    pd = phase_diagram(p, deltas=deltas)
    blocks = [two_magnon_block(k, p) for k in pd.k]
    want = np.array([[l4_of_weights(unfold_relative_weights(b, b.top_state(dl)[1]))
                      for dl in deltas] for b in blocks])
    assert np.array_equal(pd.bound, want > pd.threshold)
    assert np.abs(pd.l4 - want).max() <= 1e-13


def openblas_reader():
    """``openblas()`` of perfbench/fingerprint.py, loaded from the source tree."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("perfbench_fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.openblas


def test_one_blas_thread_sets_and_restores_every_openblas(monkeypatch, tmp_path):
    import scipy.linalg  # noqa: F401  maps scipy's OpenBLAS beside numpy's

    read = openblas_reader()

    def counts():
        return [lib["threads"] for lib in read()]

    before = counts()
    if not before:
        pytest.skip("no OpenBLAS mapped into this process")
    assert len(spectral._openblas_thread_controls()) == len(before)
    with spectral._blas_threads(0):
        assert counts() == [1] * len(before)
        # a block at the threshold gets the starting counts back inside
        with spectral._blas_threads(spectral.ONE_THREAD_BELOW_DIM):
            assert counts() == before
        assert counts() == [1] * len(before)
    assert counts() == before
    with pytest.raises(RuntimeError, match="inside"):
        with spectral._blas_threads(0):
            assert counts() == [1] * len(before)
            raise RuntimeError("inside")
    assert counts() == before
    # no maps file, or no known symbol: the context reads and sets nothing
    for name, value in (("_MAPS", str(tmp_path / "missing")),
                        ("_OPENBLAS_THREAD_SYMBOLS", (("no_get", "no_set"),))):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, name, value)
            assert spectral._openblas_thread_controls() == []
            with spectral._blas_threads(0):
                assert counts() == before


def test_open_chain_l4_grows_with_delta():
    p = ModelParams(L=20, alpha=1.4)
    vals = open_chain_top_l4(p, np.array([0.5, 3.5]))
    assert vals[1] > vals[0]
    assert vals[1] > bound_threshold(20)


@pytest.mark.parametrize("delta", [0.5, 3.5])
def test_open_chain_l4_matches_dense_top_eigenvector(delta):
    p = ModelParams(L=12, alpha=1.4)
    op = sector_hamiltonian(ModelParams(L=12, alpha=1.4, delta=delta), 2)
    top = np.linalg.eigh(op.dense())[1][:, -1]
    occ = op.basis.occupations
    w = np.bincount(occ[:, 1] - occ[:, 0], weights=top**2, minlength=12)[1:]
    assert open_chain_top_l4(p, np.array([delta]))[0] == pytest.approx(
        np.sum(w**2), abs=1e-12)


def test_wavefunction_tails_bound_state():
    p = ModelParams(L=200, alpha=1.4, delta=3.0, boundary="ring")
    tail = wavefunction_tails(np.pi, p)
    assert tail.prob_rel[0] == pytest.approx(1.0)
    assert 0 < tail.xi < 3.0  # strongly bound core
    assert tail.power < -1.5  # algebraic far tail from the coupling law
    # at k = pi only odd distances are populated; that core decays
    assert np.all(tail.prob_rel[1:11:2] < 1e-12)
    odd = tail.prob_rel[0:12:2]
    assert np.all(np.diff(odd) < 0)
