"""Magnon spectra: one-magnon dispersion, two-magnon momentum blocks, L4 map.

One-magnon dispersion (energy relative to the all-down state):

    eps1(k) = (4J/3) sum_{l>=1} (cos(k l) - delta) / l^alpha

'infinite' mode evaluates the series exactly through polylogarithms,
Re Li_alpha(e^{ik}) and zeta(alpha); 'ring' mode is the exact finite sum
for a ring of L sites, where for even L the antipodal term l = L/2 enters
with weight 1/2 (each site has a single antipode).

Two-magnon states on the ring are organized by total momentum k = 2 pi m / L
into blocks over the relative distance d.  The block basis is

    |k; d> ~ sum_j e^{i k (j + d/2)} |up_j, up_{j+d}>,   d = 1 .. floor(L/2)

(the d = L/2 state exists only for even m when L is even).  The highest
eigenstate of a block is the repulsively bound pair candidate; its inverse
participation ratio L4 = sum_d |psi(d)|^4 over the unfolded relative
coordinate d = 1 .. L-1 separates bound (L4 above 5/(L-1)) from extended
states (L4 of order 1/(L-1)).

The package's one BLAS-thread rule lives here, ``_blas_threads(dim)``: a
dense stage whose largest block is below ``ONE_THREAD_BELOW_DIM`` runs on
one OpenBLAS thread, and one at or above it gets back the count each
OpenBLAS had before magnonlab changed it. Every CLI run and the pair
ladder of ``probes`` enter it at one thread, the top-pair loop here
(``_top_pairs``) in both directions, ``propagate``'s dense path and
``floquet_sweep`` only at or above the threshold.
"""

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .model import sector_hamiltonian, vacuum_energy

BOUND_THRESHOLD_NUM = 5.0  # bound if L4 > 5/(L-1)
POLYLOG_DPS = 18  # mpmath working precision (decimal digits) of the polylog series
TAIL_FIT_MAX_D = 8  # wavefunction_tails fits its decay length over d <= this

# _blas_threads runs dense stages whose blocks are below this dimension on one
# BLAS thread and gives larger ones the starting count back. top_state with 2
# OpenBLAS threads against 1, ring L = 300/600/1000/1400/2000 (dims
# 149/299/499/699/999): 0.97x, 1.03x, 1.17x, 1.38x, 1.91x. numpy eigh, 1 thread
# against 2 on 2 cores: 10.1 vs 9.8 ms at dim 256, 28 vs 25 ms at 400, 77 vs 57
# ms at 612, 349 vs 232 ms at 1024. Below it a second thread mostly spins.
ONE_THREAD_BELOW_DIM = 400
# _top_pairs solves a stage of n two-magnon blocks of dim d with numpy's eigh
# of every pair where n d^3 is at most this, else with dsyevr of the top pair,
# which needs scipy.linalg. On one thread of a shared 2-core Xeon, eigh cost
# 13.5 vs 9.2 us at d = 9, 186 vs 56 us at d = 50 and 1.32 vs 0.47 ms at
# d = 150, about 0.25-0.3 ns more per d^3 from d = 100; importing
# scipy.linalg cost 26-36 ms and 7 MiB peak RSS. The crossover lies near
# n d^3 = 1e8: dispersion_two up to L of about 200 (n = L/2 solves of dim
# L/2) takes eigh, the figS5 grid (680 solves of dim 150) takes dsyevr.
TOP_PAIR_EIGH_DIM3 = 1e8

_MAPS = "/proc/self/maps"
# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _check_k(k, allow_zero=False):
    k = np.atleast_1d(np.asarray(k, dtype=float))
    lo = -1e-12 if allow_zero else 1e-12
    if np.any(k < lo) or np.any(k > np.pi + 1e-12):
        raise ValueError("momentum k must lie in (0, pi]")
    return k


def _ring_terms(params):
    """(l, w_l / l^alpha) of the finite ring sum: distances l = 1 .. L/2, each
    reached both ways round (weight 1), except l = L/2 of an even ring (1/2)."""
    L = params.L
    ell = np.arange(1, (L + 1) // 2, dtype=float)
    w = np.ones_like(ell)
    if L % 2 == 0:
        ell = np.append(ell, L / 2.0)
        w = np.append(w, 0.5)
    return ell, w / ell**params.alpha


def dispersion_one(k, params, mode="infinite"):
    """One-magnon dispersion eps1(k), in units of params.J.

    mode 'infinite': exact series limit via polylogarithms, evaluated at
    ``POLYLOG_DPS`` digits.  mode 'ring': exact finite ring sum for params.L.
    Accepts a scalar or array k in [0, pi]; returns matching shape.
    """
    scalar = np.isscalar(k)
    k = _check_k(k, allow_zero=True)
    J, alpha, delta = params.J, params.alpha, params.delta
    if mode == "infinite":
        if alpha <= 1:
            raise ValueError("infinite-chain series requires alpha > 1")
        import mpmath as mp  # only the infinite-chain series need it

        with mp.workdps(POLYLOG_DPS):
            zeta = float(mp.zeta(alpha))
            cos_part = np.array(
                [float(mp.re(mp.polylog(alpha, mp.expj(ki)))) for ki in k]
            )
        eps = 4.0 * J / 3.0 * (cos_part - delta * zeta)
    elif mode == "ring":
        ell, terms = _ring_terms(params)
        eps = 4.0 * J / 3.0 * (
            np.cos(np.outer(k, ell)) @ terms - delta * terms.sum()
        )
    else:
        raise ValueError(f"unknown dispersion mode {mode!r}")
    return float(eps[0]) if scalar else eps


def group_velocity_one(k, params, mode="infinite"):
    """Signed group velocity v(k) = d eps1/dk = -(4J/3) sum_l sin(k l) l^(1-alpha),
    with the sum of ``dispersion_one``'s mode.

    mode 'infinite': -(4J/3) Im Li_{alpha-1}(e^{ik}); for 1 < alpha <= 2 the
    magnitude grows without bound as k -> 0+ (dispersion cusp at k = 0).
    mode 'ring': the derivative of the finite ring sum for params.L.
    """
    scalar = np.isscalar(k)
    k = _check_k(k)
    if mode == "infinite":
        import mpmath as mp  # not at module level: every start-up would pay for it

        with mp.workdps(POLYLOG_DPS):
            sin_part = np.array(
                [float(mp.im(mp.polylog(params.alpha - 1.0, mp.expj(ki)))) for ki in k]
            )
    elif mode == "ring":
        ell, terms = _ring_terms(params)
        sin_part = np.sin(np.outer(k, ell)) @ (terms * ell)
    else:
        raise ValueError(f"unknown dispersion mode {mode!r}")
    v = -4.0 * params.J / 3.0 * sin_part
    return float(v[0]) if scalar else v


def _openblas_thread_controls():
    """(path, get, set) thread-count functions of every OpenBLAS mapped into
    this process.

    The maps read costs about 0.8 ms, so its result is kept until the next
    import: an OpenBLAS is mapped by importing the extension that links it
    (numpy's at start-up, scipy's with ``scipy.linalg``), and a reuse costs
    about 1 us.
    """
    import sys

    return _read_thread_controls(_MAPS, _OPENBLAS_THREAD_SYMBOLS, len(sys.modules))


@lru_cache(maxsize=1)
def _read_thread_controls(maps, symbols, n_modules):
    """``_openblas_thread_controls`` from one read of the maps file."""
    try:
        with open(maps) as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)  # already loaded: returns the same handle
        except OSError:
            continue
        for get_name, set_name in symbols:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((path, get, put))
                break
    return controls


# while a _blas_threads scope is open: library path -> the thread count that
# OpenBLAS had before the outermost open scope changed it
_starting_threads = None


@contextmanager
def _blas_threads(dim, give_back_only=False):
    """The BLAS thread rule for a dense stage whose largest block is ``dim``.

    Below ``ONE_THREAD_BELOW_DIM`` every loaded OpenBLAS runs on one
    thread, since a second one only spins between such small calls; at or
    above it, each gets back the count it had before magnonlab changed it
    (a no-op outside any scope). ``give_back_only`` stages set nothing
    below the threshold. Counts are process-wide and restored on exit,
    also on an error. Scopes wrap whole stages, never loop bodies: an
    entry that sets counts costs about 10 us, and about 0.8 ms where it
    reads /proc/self/maps (``_openblas_thread_controls``).
    """
    global _starting_threads
    small = dim < ONE_THREAD_BELOW_DIM
    outermost = _starting_threads is None
    if (small and give_back_only) or (not small and outermost):
        yield
        return
    controls = _openblas_thread_controls()
    saved = [get() for _, get, _ in controls]
    if outermost:
        _starting_threads = {}
    try:
        for (path, _, put), n in zip(controls, saved):
            start = _starting_threads.setdefault(path, n)
            put(1 if small else start)
        yield
    finally:
        for (_, _, put), n in zip(controls, saved):
            put(n)
        if outermost:
            _starting_threads = None


def quantized_momenta(L):
    """Positive ring momenta 2 pi m / L, m = 1 .. floor(L/2)."""
    return 2.0 * np.pi * np.arange(1, L // 2 + 1) / L


@dataclass
class TwoMagnonBlock:
    """Momentum-k block of the two-magnon ring sector, H = kinetic + delta * u."""

    k: float
    m: int
    L: int
    distances: np.ndarray  # physical relative distances d
    kinetic: np.ndarray  # hopping part, real symmetric, delta-independent
    u_diag: np.ndarray  # zz diagonal per unit delta (includes vacuum part)
    params: object

    @property
    def dim(self):
        return len(self.distances)

    def hamiltonian(self, delta=None):
        if delta is None:
            delta = self.params.delta
        if not np.isfinite(delta):  # dsyevr would return NaN with info = 0
            raise ValueError(f"delta must be finite, got {delta}")
        h = self.kinetic.copy()
        h.flat[:: self.dim + 1] += delta * self.u_diag
        return h

    def eigensystem(self, delta=None):
        return np.linalg.eigh(self.hamiltonian(delta))

    def top_state(self, delta=None, subset=True):
        """Highest eigenpair (energy, vector).

        subset: one LAPACK ``dsyevr`` call (range 'I', il = iu = dim, lower
        triangle) with the workspace of ``dsyevr_lwork``, which solves for
        the top pair only: the routine and workspace of
        ``scipy.linalg.eigh(h, subset_by_index=[dim-1, dim-1])``, whose
        result this is byte for byte, without its argument handling.
        Otherwise the last pair of ``eigensystem``, numpy's eigh of them all.
        """
        n = self.dim
        if n == 0:  # at L = 2 the odd-m block has no pair state
            raise ValueError(f"the two-magnon block at k={self.k} is empty")
        if not subset:
            vals, vecs = self.eigensystem(delta)
            return vals[-1], vecs[:, -1]
        # imported on first use: at module level, scipy.linalg would cost
        # every magnonlab process about 7 MiB and 0.03 s; _top_pairs
        # imports it before setting threads
        from scipy.linalg.lapack import dsyevr

        h = self.hamiltonian(delta)
        # h is exactly symmetric, so its transpose is the F-ordered matrix
        # itself, which f2py hands to LAPACK without a copy
        lwork, liwork = _dsyevr_work(n)
        w, z, _, _, info = dsyevr(h.T, range="I", il=n, iu=n, lower=1, overwrite_a=1,
                                  lwork=lwork, liwork=liwork)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
        return w[0], z[:, 0]


# two ints per block dim; a ring's blocks have at most two dims, L // 2 and L // 2 - 1
@lru_cache(maxsize=16)
def _dsyevr_work(n):
    """(lwork, liwork) that dsyevr_lwork reports for dimension n, lower triangle."""
    from scipy.linalg.lapack import dsyevr_lwork

    work, iwork, _ = dsyevr_lwork(n, lower=1)
    return int(work), int(iwork)


def two_magnon_block(k, params):
    """Build the exact two-magnon block at ring momentum k = 2 pi m / L.

    Energies are absolute: the union over all m is isospectral to the
    two-magnon ring sector Hamiltonian.  The kinetic block gathers from
    one hop table over the 2L-1 integer offsets, which evaluates cos and
    the coupling once per offset instead of once per entry; the block is
    byte-identical to the per-entry evaluation.
    """
    if params.boundary != "ring":
        raise ValueError("two-magnon momentum blocks require boundary='ring'")
    L = params.L
    m_float = k * L / (2.0 * np.pi)
    m = int(round(m_float))
    if abs(m_float - m) > 1e-9:
        raise ValueError(f"k={k} is not a ring momentum 2*pi*m/L for L={L}")
    m %= L

    # coupling by directed separation, cyclic distance
    x = np.arange(L, dtype=float)
    dc = np.minimum(x, L - x)
    Jc = np.zeros(L)
    Jc[1:] = params.J / dc[1:] ** params.alpha

    dist = np.arange(1, L // 2 + 1)
    if L % 2 == 0 and m % 2 == 1:
        dist = dist[:-1]  # antipodal pair state vanishes at odd m

    # extended-label hop amplitude for d -> d' with all pairs listed as
    # (j, j+d), d = 1..L-1: both one-magnon moves change d by l = d'-d mod L,
    # and since e^{ikL} = 1 their phases e^{ik(l - s/2)} + e^{-iks/2}, with
    # s = d'-d, sum to the real 2 cos(ks/2). One table over the offsets
    # s = -(L-1) .. L-1 serves both d'-d and the fold L-d'-d of the
    # reflected label L-d'; table[L-1 + s] holds offset s.
    s = np.arange(1 - L, L)
    table = 4.0 / 3.0 * Jc[s % L] * np.cos(0.5 * k * s)
    M1 = table[L - 1 + dist[:, None] - dist[None, :]]  # d' rows, d cols
    M2 = table[2 * L - 1 - dist[:, None] - dist[None, :]]
    antipode = 2 * dist == L
    sgn = -1.0 if m % 2 else 1.0
    kin = M1 + sgn * np.where(antipode[:, None], 0.0, M2)

    # normalization: |k,d> carries sqrt(2) relative to the antipodal state
    c = np.where(antipode, 1.0, np.sqrt(2.0))
    kin = kin * (c[None, :] / c[:, None])

    sym_err = np.max(np.abs(kin - kin.T), initial=0.0)
    if sym_err > 1e-10 * max(params.J, 1.0):
        raise AssertionError(f"two-magnon block not symmetric: {sym_err}")
    kin = 0.5 * (kin + kin.T)

    # zz diagonal: (delta/3)(S_tot - 4R + 4 J(d)); S_tot part = vacuum energy
    R = Jc[1:].sum()
    S_tot = L * R / 2.0
    u = (S_tot - 4.0 * R + 4.0 * Jc[dist]) / 3.0

    return TwoMagnonBlock(
        k=k, m=m, L=L, distances=dist, kinetic=kin, u_diag=u, params=params
    )


def unfold_relative_weights(block, vec):
    """|psi(d)|^2 over the full directed range d = 1 .. L-1.

    Block components at d < L/2 split evenly between d and L-d; the
    antipodal component (if present) gets both halves at d = L/2.
    """
    d = block.distances
    half = 0.5 * np.abs(vec) ** 2
    w = np.zeros(block.L - 1)
    w[d - 1] += half
    w[block.L - d - 1] += half
    return w


def l4_of_weights(w):
    """L4 from probability weights (sum w = 1)."""
    return float(np.sum(np.asarray(w) ** 2))


def bound_threshold(L):
    return BOUND_THRESHOLD_NUM / (L - 1)


@dataclass
class DispersionCurve:
    k: np.ndarray
    energy: np.ndarray  # excitation energy (relative to the vacuum)
    l4: np.ndarray
    bound: np.ndarray
    params: object
    label: str = ""


def _top_pairs(params, k_values, deltas):
    """Yield (energy, unfolded weights) of the top two-magnon state per (k, delta).

    k-major: each block is built once per k (the zz diagonal is linear in
    delta), under ``_blas_threads`` for blocks of L // 2 (one thread for
    every L below 800). A stage of n solves of dim d takes numpy's eigh of
    every eigenpair where n d^3 is at most TOP_PAIR_EIGH_DIM3, and
    ``top_state``'s dsyevr of the top pair only above it, so a small stage
    does not import scipy.linalg.
    """
    dim = params.L // 2
    subset = len(k_values) * len(deltas) * dim**3 > TOP_PAIR_EIGH_DIM3
    if subset:
        import scipy.linalg  # noqa: F401  top_state's OpenBLAS, mapped before the count is set

    with _blas_threads(dim):
        for k in k_values:
            block = two_magnon_block(k, params)
            for delta in deltas:
                energy, top = block.top_state(delta, subset)
                yield energy, unfold_relative_weights(block, top)


def dispersion_two(k_values, params):
    """Highest two-magnon eigenstate per ring momentum k.

    Returns excitation energies eps2(k) - eps0 together with the L4 norm
    of the relative wavefunction and a bound flag (L4 above 5/(L-1));
    an unset flag marks the state as merged with the pair continuum.
    """
    k_values = np.atleast_1d(np.asarray(k_values, dtype=float))
    tops = list(_top_pairs(params, k_values, [params.delta]))
    l4 = np.array([l4_of_weights(w) for _, w in tops])
    return DispersionCurve(
        k=k_values,
        energy=np.array([e for e, _ in tops]) - vacuum_energy(params),
        l4=l4,
        bound=l4 > bound_threshold(params.L),
        params=params,
    )


@dataclass
class PhaseDiagram:
    k: np.ndarray
    delta: np.ndarray
    l4: np.ndarray  # (n_k, n_delta)
    threshold: float
    params: object

    @property
    def bound(self):
        return self.l4 > self.threshold

    def onset_delta(self):
        """Smallest delta in the grid with any bound momentum, or None."""
        bound = self.delta[self.bound.any(axis=0)]
        return float(bound.min()) if len(bound) else None


def phase_diagram(params, k_values=None, deltas=None, threads=None):
    """L4 of the top two-magnon state over a (k, delta) grid on the ring.

    One ``_top_pairs`` loop over the grid; ``threads`` is accepted for old
    callers and ignored.
    """
    if k_values is None:
        k_values = quantized_momenta(params.L)
    if deltas is None:
        deltas = np.arange(0.0, 4.01, 0.25)
    k_values = np.asarray(k_values, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    l4 = [l4_of_weights(w) for _, w in _top_pairs(params, k_values, deltas)]
    return PhaseDiagram(
        k=k_values,
        delta=deltas,
        l4=np.reshape(l4, (len(k_values), len(deltas))),
        threshold=bound_threshold(params.L),
        params=params,
    )


def open_chain_top_l4(params, deltas):
    """Open-chain comparison: L4 of the top two-magnon eigenstate per delta.

    Sector ED without momentum resolution; the top state is the last
    eigenvector of the reflection block with the larger top eigenvalue.
    The relative-distance weights are |psi(d)|^2 = sum_j |amp(j, j+d)|^2,
    d = 1 .. L-1.
    """
    out = np.empty(len(deltas))
    for i, dl in enumerate(deltas):
        op = sector_hamiltonian(replace(params, delta=float(dl), boundary="open"), 2)
        q, _, v = max((b for b in op.eigensystem() if len(b[1])), key=lambda b: b[1][-1])
        top = q @ v[:, -1]
        occ = op.basis.occupations
        d = occ[:, 1] - occ[:, 0]
        w = np.zeros(params.L - 1)
        np.add.at(w, d - 1, np.abs(top) ** 2)
        out[i] = l4_of_weights(w)
    return out


@dataclass
class TailProfile:
    distances: np.ndarray
    prob_rel: np.ndarray  # |psi(d)|^2 / |psi(1)|^2
    xi: float  # exponential decay length from the short-distance fit
    power: float  # log-log slope of the far tail


def wavefunction_tails(k, params):
    """Relative-distance profile of the top two-magnon state at momentum k.

    Fits log prob = a - d/xi over d <= ``TAIL_FIT_MAX_D`` and a
    power law over the outer half of the chain, where the algebraic
    coupling tail takes over from the exponential bound-state core.

    Both fits run on the populated distances only: at k = pi the pair hop
    amplitude 2 cos(k l / 2) kills all odd moves, so one distance parity
    carries the whole state and the other sits at numerical zero.
    """
    ((_, w),) = _top_pairs(params, [k], [params.delta])
    half = np.arange(1, params.L // 2 + 1)
    prob = w[: params.L // 2] / w[0]

    live = prob > 1e-18  # relative to the d = 1 weight
    d_live, p_live = half[live], prob[live]

    core = d_live <= TAIL_FIT_MAX_D
    if core.sum() < 2:
        raise ValueError(f"no support below d = {TAIL_FIT_MAX_D} to fit a decay length")
    coef = np.polyfit(d_live[core], np.log(p_live[core]), 1)
    xi = -1.0 / coef[0] if coef[0] < 0 else np.inf

    outer = slice(len(d_live) // 2, len(d_live))
    pw = np.polyfit(np.log(d_live[outer]), np.log(p_live[outer]), 1)[0]
    return TailProfile(distances=half, prob_rel=prob, xi=xi, power=pw)
