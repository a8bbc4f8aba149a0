"""Time evolution engines for the long-range XXZ chain.

Two propagators with one state convention, and the pulsed realization:

* ``propagate``: psi(t) = exp(-iHt) psi0 on a whole time grid, restricted
  to the rows the caller reads, as (n_times, len(rows)) or (n_times, dim);
  a (dim, m) block of states evolves in the same pass, one column each.
  A Chebyshev series of exp(-iHt) in sparse products gives every time
  point at once and forms no eigensystem. It runs where ``takes_series``
  holds: where its K x nnz products cost less than diagonalizing, so a
  large sector over a short window takes it and a long window (K in the
  thousands) or a small sector does not. Elsewhere a sector runs through
  its cached reflection-even and -odd blocks (Q, eigenvalues, V), never a
  (dim, dim) eigenvector matrix. ``exact_evolve`` is its single-time case.
  Quench maps, beat and pair spectroscopy and the entropy time series read
  their states from it.
* ``krylov_evolve``: the same Chebyshev series at one time, at any dim, for
  a sector or a raw real matrix; nothing in the experiments calls it.
* ``floquet_evolve`` and ``floquet_sweep``: the pulsed realization. Each
  step applies a global rotation about +-x/+-y followed by evolution under
  the bare XX coupling Hamiltonian (plus an optional detuning term
  (delta_err/2) sum_j sz_j that models a drive-frequency offset, active
  during pulses). In the toggled frame the pulses realize XX-, YY- and
  ZZ-type substeps whose wall-time ratio 1 : 1 : Delta makes the cycle
  average equal to the target (1/3)(XX + YY + Delta ZZ) Hamiltonian, with
  one (tau, tau, Delta tau) substep group advancing effective time by
  3 tau. ``floquet_sweep`` returns the fidelities of every (detuning,
  sequence) pair; ``floquet_evolve`` returns the final state of one
  detuning and one sequence, and both run one private step loop.

The series rescales the spectrum into [-1, 1], and its order K grows with
the width of the interval used (Weisse et al., Rev. Mod. Phys. 78, 275
(2006)). A sector caches a tight, rigorous interval from its hopping
structure (``SectorOperator.spectral_interval``: K = 142 instead of 184
for fig1d's n=4 sector); a raw matrix gets its Gershgorin discs.

The dense sector path and the pulse steps run one kernel, ``_spectral_step``:
readout @ (phase * (V^T z)) for the real eigenvectors V of a block and a
complex (d, m) block z, one real matrix product each way on the (d, 2m)
float view. The pulse Hamiltonian H_XX + (delta_err/2) sum_j sz_j conserves
prod_j sz_j and the site reversal, so its eigensystem is four z-parity x
reflection blocks in the sector format. H_XX's blocks are built once per
chain; the detuning term is a function of the magnon number, so each
detuning only adds to their diagonals. The global spin flip X = prod_j sx_j
commutes with H_XX and reverses sum_j sz_j, so -delta_err runs on the
eigensystem of +delta_err in a flipped frame, and one eigensystem serves
each |delta_err|. The pulse loop steps all runs in lockstep as one
(2^L, n_det, n_seq) block: a global rotation applies three sites' 8x8
Kronecker product at a time, and a pulse step is one sparse product into
the stacked block coordinates, one spectral step per block and detuning
magnitude, and one sparse product back. Magnitudes run in chunks whose
eigenvectors fit ``SWEEP_CHUNK_BYTES``.

Pulse sequences are data: a ``PulseSequence`` is a cycle of ``PulseStep``s,
each a rotation about +x, -x, +y or -y by an angle in radians followed by a
pulse of duration w_const + w_delta * Delta in units of tau. The two
built-ins are tuples of steps in ``BUILT_IN``: ``dd``, whose toggled
detuning axes cancel within each weight class (first-order dynamical
decoupling for every Delta), and ``plain``, with the same pulse pattern
but uncancelled detuning. Both end their 8-step cycle with the frame back
at identity; after the last step, at a whole cycle or not, the inverse
accumulated frame R_f,n is applied once.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice

import numpy as np
from scipy import sparse

from .model import (
    INTERVAL_POWER_STEPS,
    SECTOR_MAX_BYTES,
    ModelParams,
    SectorOperator,
    StateVector,
    _reflection_isometry,
    _reflection_projections,
    build_full_hamiltonian,
    full_space_bits,
    gershgorin_interval,
)

# propagate runs the Chebyshev series where its products of the nnz nonzeros,
# K orders plus the interval's INTERVAL_POWER_STEPS + 1, number at most this
# many times the sum of d^3 over the two reflection blocks (of about dim/2) that
# the dense path diagonalizes (``takes_series``). The series is paid on every
# call, the eigh once per sector: one call costs about 2 ns per order and
# nonzero, one eigh 0.2 ns per d^3, a ratio of 0.1, and a pair-spectroscopy
# scan ran four calls per sector (its one block call per sector costs about as
# much: at dim 3060 an order of nine states took 4.7 times one). Dense vs series over 64 times at Delta=3 on
# 2 cores, the series on one BLAS thread, with the cost ratio in brackets; four
# calls: 0.024 vs 0.035 s at dim 495 (L=12 n=4, t=8, [0.076]), 0.33 vs 0.40 s
# at 1770 (L=60 n=2, t=20, [0.031]), 0.057 vs 0.038 s at 780 (L=40 n=2, t=4,
# [0.040]), 0.10 vs 0.06 s at 1001 (L=14 n=4, t=8, [0.025]), 0.15 vs 0.07 s at
# 1365 (L=15 n=4, t=8, [0.015]); one call: 0.12 vs 2.65 s at 1225 (L=50 n=2,
# t=2000, [3.5]). The crossover lies between 0.025 and 0.04; at its low end a
# sector in between keeps the dense blocks.
CHEBYSHEV_NNZ_PER_DIM3 = 0.025
# the Chebyshev series stops where its Bessel tail falls below this, relative
# to |psi0|
CHEBYSHEV_TOL = 1e-14
# the series is summed over blocks of orders whose kept rows fit in this many
# bytes, and each block's product is added in column chunks of at most as many
# bytes, so neither a long time window (K in the thousands) nor a block of
# states holds every order. Fresh dispersion2 --length 18 --measure 1 runs
# (nine momenta, 639 rows read of the n=4 sector) peaked at 81.4 / 70.4 / 68.5
# MiB RSS with 8 / 2 / 1 MiB, against 69.9 MiB for one momentum at a time;
# 2 MiB would sum fig1d's L=20 ladder in 0.32 s instead of 0.36 s.
CHEBYSHEV_BLOCK_BYTES = 1 << 20
# The pulse eigensystem is four dense blocks of about 2^(L-2). Cold starts of
# one detuning (the run itself, fresh process in brackets) took 0.04 s (0.34 s)
# at 61 MiB peak RSS at L=10, 0.11 s (0.39 s) at 79 MiB at L=11 and 0.59 s
# (0.88 s) at 148 MiB at L=12 on 2 cores, 50 MiB of it imports; eigh nears 8x
# per site.
PULSE_MAX_L = 12
# floquet_sweep diagonalizes detuning magnitudes in chunks of this many
# eigenvector bytes (at least one magnitude): 15 at L=9 (0.5 MiB each), 3 at
# L=10, one at L=12 (32 MiB). More per chunk cost memory and save little time.
SWEEP_CHUNK_BYTES = 8 << 20
# _pulse_eigensystem caches this many detuning magnitudes, the most recent, so
# a sweep retains the eigenvectors of max(chunk, 4) of them and H_XX's dense
# blocks, as many bytes as one more: 5 x 8.4 MB = 42 MB at L=11
PULSE_CACHE_ENTRIES = 4
# _spectral_step forms V^T z as (z^T V)^T from this dim: 1.0 vs 3.4-4.1 ms at 1548
SPECTRAL_ROW_FORM_DIM = 768
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def fidelity(psi, phi):
    """|<psi|phi>|^2 for same-basis states (arrays or StateVectors)."""
    if isinstance(psi, StateVector) and isinstance(phi, StateVector):
        return abs(psi.overlap(phi)) ** 2
    a = psi.data if isinstance(psi, StateVector) else np.asarray(psi)
    b = phi.data if isinstance(phi, StateVector) else np.asarray(phi)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return abs(np.vdot(a, b)) ** 2


def propagate(H, psi0, times, rows=None):
    """exp(-iHt) psi0 for every t in times, as a (n_times, len(rows)) array.

    rows selects the basis rows to return, all of them (dim) when None.
    psi0 may also be a complex (dim, m) block of m states, evolved together
    into a (n_times, len(rows), m) array. Where ``takes_series`` holds,
    ``_chebyshev_series`` evolves psi0 with sparse products only and never
    diagonalizes H. Elsewhere, per reflection block (Q, E, V) of
    ``H.eigensystem()`` the coefficients V^T Q^T psi0 are formed once, and
    ``_spectral_step`` applies every phase and the readout Q[rows] V at
    once. A scalar t gives one (len(rows),) state, or (len(rows), m).
    """
    vec, grid = _state_and_grid(H.dim, psi0, times)
    n_out = H.dim if rows is None else len(rows)
    shape = np.shape(times) + (n_out,) + vec.shape[1:]
    if takes_series(H, grid):
        return _chebyshev_series(H.matrix, H.spectral_interval, vec, grid,
                                 rows).reshape(shape)
    from .spectral import _blas_threads

    m = 1 if vec.ndim == 1 else vec.shape[1]
    out = np.zeros((n_out, len(grid), m), dtype=complex)
    with _blas_threads(_dense_block(H), give_back_only=True):
        for q, evals, evecs in H.eigensystem():
            z = np.asarray(q.T @ vec, dtype=complex).reshape(len(evals), m)
            readout = (q if rows is None else q[rows]) @ evecs
            out += _spectral_step(evecs, np.exp(-1j * np.outer(evals, grid))[:, :, None],
                                  z, readout)
    return out.transpose(1, 0, 2).reshape(shape)


def _dense_block(H):
    """The larger of H's two reflection blocks, the even one: one row per
    orbit of the site reversal, (dim + palindromes)/2."""
    return np.count_nonzero(np.arange(H.dim) <= H.basis.mirror)


def takes_series(H, times):
    """True where ``propagate`` runs the Chebyshev series for H over times.

    Chosen by cost alone, whether or not H's eigensystem is cached, so a
    run's path and digits do not depend on what ran before it on a shared
    sector. Always where that eigensystem, about 4 dim^2 bytes, would
    exceed SECTOR_MAX_BYTES. Elsewhere where the series' products of the
    nnz nonzeros, K orders plus the INTERVAL_POWER_STEPS + 1 of
    ``H.spectral_interval``, number at most CHEBYSHEV_NNZ_PER_DIM3 times
    the sum of d^3 over two reflection blocks of about dim/2. K is read
    off that interval before any series product runs; a sector where even
    K = 1 costs more forms neither.
    """
    if 4 * H.dim**2 > SECTOR_MAX_BYTES:
        return True
    orders = CHEBYSHEV_NNZ_PER_DIM3 * H.dim**3 / 4 / H.matrix.nnz - INTERVAL_POWER_STEPS - 1
    if orders < 1:
        return False
    return series_orders(H.spectral_interval[0] * np.max(np.abs(times), initial=0.0)) <= orders


# calls that propagate one cached sector over one window ask for the same
# x_max: spectroscopy_two called per momentum without a scan, say
@lru_cache(maxsize=64)
def series_orders(x_max):
    """K, the orders of the Chebyshev series of exp(-iHt) at a max|t| = x_max:
    the first order whose Bessel tail 2 sum_(k>=K) |J_k(x_max)| is at most
    CHEBYSHEV_TOL, since |T_k(h) vec| <= |vec|."""
    return _bessel_orders(np.array([x_max]))[1]


def _bessel_orders(x):
    """(table, K): J_k(x) for k < K at every x >= 0 as a (len(x), K) table,
    with K = ``series_orders(max(x))``."""
    x_max = x.max(initial=0.0)
    # past k = x, J_k(x) falls faster than exponentially: the table ends
    # where the terms lie far below the tolerance; its last row is x_max
    bessel = _bessel_j(np.append(x, x_max), int(x_max + 20 * np.cbrt(x_max) + 60))
    tail = 2 * np.cumsum(np.abs(bessel[-1, ::-1]))[::-1]
    n_orders = max(1, int(np.argmax(tail <= CHEBYSHEV_TOL)))
    return bessel[:-1, :n_orders], n_orders


def _state_and_grid(dim, psi0, times):
    """(psi0 as a (dim,) or (dim, m) array, times as a flat grid of finite values)."""
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    if vec.ndim not in (1, 2) or len(vec) != dim:
        raise ValueError(f"state shape {vec.shape} is not (dim,) or (dim, m) for dim {dim}")
    grid = np.reshape(times, -1)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"times must be finite, got {grid[~np.isfinite(grid)]}")
    return vec, grid


def _chebyshev_series(mat, interval, vec, grid, rows):
    """exp(-i mat t) vec at every t of grid, as (n_times, len(rows)), or as
    (n_times, len(rows), m) for a (dim, m) block vec.

    interval = (a, b) puts the spectrum of the real symmetric mat in
    [b - a, b + a]: ``SectorOperator.spectral_interval``, or Gershgorin
    for a raw matrix. Then h = (mat - b)/a has its spectrum in [-1, 1]
    and exp(-i mat t) = e^(-ibt) sum_k (2 - delta_k0) (-i)^k J_k(at) T_k(h)
    (Tal-Ezer & Kosloff 1984), summed to the K of ``series_orders``. Only
    the kept rows of each order T_k(h) vec (``_chebyshev_orders``) are
    stored, and one (n_times, k) @ (k, columns) product per block of orders
    sums the series at every time; the blocks take turns in one array of
    at most CHEBYSHEV_BLOCK_BYTES, and each product is added in column
    chunks whose temporary also fits that budget.
    A zero-width spectrum (a = 0) is a pure phase.
    """
    a, b = interval
    bessel, n_orders = _bessel_orders(a * np.abs(grid))
    # (-i)^k J_k(at) = (-i sign t)^k J_k(a|t|), read off the quarter turns
    k = np.arange(n_orders)
    turns = np.outer(np.where(grid < 0, -1, 1), k) % 4
    coef = bessel * np.array([1, -1j, -1, 1j])[turns]
    coef[:, 1:] *= 2
    coef *= np.exp(-1j * b * grid)[:, None]
    keep = slice(None) if rows is None else rows
    n_rows = len(vec) if rows is None else len(rows)
    columns = n_rows * (1 if vec.ndim == 1 else vec.shape[1])
    orders = _chebyshev_orders(mat, a, b, vec, keep, n_orders)
    block = min(n_orders, max(1, CHEBYSHEV_BLOCK_BYTES // (16 * max(1, columns))))
    chunk = max(1, CHEBYSHEV_BLOCK_BYTES // (16 * len(grid)))
    moments = np.empty((block, columns), dtype=complex)
    out = np.zeros((len(grid), columns), dtype=complex)
    for lo in range(0, n_orders, block):
        count = min(block, n_orders - lo)
        for k, order in enumerate(islice(orders, count)):
            moments[k] = order.reshape(-1)
        for c in range(0, columns, chunk):
            out[:, c:c + chunk] += coef[:, lo:lo + count] @ moments[:count, c:c + chunk]
    return out.reshape((len(grid), n_rows) + vec.shape[1:])


def _chebyshev_orders(mat, a, b, vec, keep, n_orders):
    """T_k(h) vec for k < n_orders, h = (mat - b)/a, each restricted to keep.

    T_(k+1) = 2h T_k - T_(k-1) runs on real arrays, 2h v = (2/a)(mat v)
    - (2b/a) v, so no scaled copy of mat is built; T_(k+1) overwrites
    T_(k-1). One state, also a (dim, 1) block, runs as two 1-D products,
    its real and imaginary parts. A (dim, m) block runs as one product on
    its (dim, 2m) float view: 0.89 ms for m = 9 at dim 3060, against
    18 x 0.094 ms for its columns one by one.
    """
    yield vec[keep]
    if n_orders == 1:
        return
    scale, shift = 2 / a, 2 * b / a

    def two_h(v):
        out = mat @ v
        out *= scale
        out -= shift * v
        return out

    if vec.ndim == 1 or vec.shape[1] == 1:
        one = vec.reshape(len(vec))
        prev = [one.real.astype(float), one.imag.astype(float)]

        def state(parts):
            return parts[0][keep] + 1j * parts[1][keep]
    else:
        prev = [np.array(vec, dtype=complex, order="C").view(float)]

        def state(parts):
            return parts[0][keep].view(complex)
    cur = [0.5 * two_h(p) for p in prev]
    for k in range(1, n_orders):
        yield state(cur)
        if k + 1 < n_orders:
            prev, cur = cur, [np.subtract(two_h(c), p, out=p) for c, p in zip(cur, prev)]


def _bessel_j(x, n):
    """J_k(x) for k < n at every x >= 0, as (len(x), n).

    Miller's downward recurrence J_(k-1) = (2k/x) J_k - J_(k+1) from an
    order well above n, rescaled before it overflows and normalized by
    J_0 + 2 sum_k J_2k = 1 (Abramowitz & Stegun 9.1.27 and 9.1.46).
    It agrees with mpmath to 2e-15 up to x = 3000.
    """
    top = n + 30 + int(np.sqrt(40 * n))
    f = np.zeros((top + 2, len(x)))
    f[top] = 1e-300
    two_over_x = 2 / np.where(x > 0, x, 1.0)
    for k in range(top, 0, -1):
        np.subtract(k * two_over_x * f[k], f[k + 1], out=f[k - 1])
        big = np.abs(f[k - 1]) > 1e250
        if big.any():
            f[k - 1:, big] *= 1e-250
    out = (f[:n] / (f[0] + 2 * f[2::2].sum(axis=0))).T
    out[x == 0] = np.arange(n) == 0
    return out


def exact_evolve(H, psi0, t):
    """psi(t) = exp(-iHt) psi0: the single-time case of ``propagate``."""
    out = propagate(H, psi0, t)
    return StateVector(out, psi0.basis) if isinstance(psi0, StateVector) else out


def krylov_evolve(H, psi0, t):
    """psi(t) = exp(-iHt) psi0 by ``_chebyshev_series`` at any dim.

    H is a ``SectorOperator`` or a real symmetric matrix, sparse or dense;
    a complex matrix raises TypeError, since the series runs in real
    sparse products.
    """
    mat = H.matrix if isinstance(H, SectorOperator) else sparse.csr_matrix(H)
    if mat.dtype.kind == "c":
        raise TypeError("the Chebyshev series needs a real matrix")
    vec, grid = _state_and_grid(mat.shape[0], psi0, t)
    interval = H.spectral_interval if isinstance(H, SectorOperator) else gershgorin_interval(mat)
    out = _chebyshev_series(mat, interval, vec, grid, None).reshape(np.shape(t) + vec.shape)
    return StateVector(out, psi0.basis) if isinstance(psi0, StateVector) else out


def _spectral_step(evecs, phase, z, readout=None):
    """readout @ (phase * (evecs.T @ z)) for real orthogonal evecs.

    z is a complex (d, m) block whose last axis is contiguous, and phase
    broadcasts against (d, m), or is (d, n, 1) for n phases of every column,
    which gives a (n_out, n, m) result; readout, a real (n_out, d) matrix,
    defaults to evecs. Each product is one real GEMM on the (., 2m) or
    (., 2nm) float view, so no matrix is conjugated or upcast to complex.
    """
    if evecs.dtype.kind == "c":
        raise TypeError("the spectral step needs real eigenvectors")
    zf = z.view(float)
    big = len(evecs) >= SPECTRAL_ROW_FORM_DIM
    coef = ((zf.T @ evecs).T.copy() if big else evecs.T @ zf).view(complex)
    # the 2-D form runs thousands of times in a pulse sweep: nothing added there
    if phase.ndim == 3:
        columns = (phase.shape[1], z.shape[1])
        coef = (coef[:, None] * phase).reshape(len(coef), columns[0] * columns[1])
    else:
        coef = coef * phase
    out = ((evecs if readout is None else readout) @ coef.view(float)).view(complex)
    return out if phase.ndim == 2 else out.reshape(len(out), *columns)


@dataclass(frozen=True)
class PulseStep:
    axis: str  # '+x' | '-x' | '+y' | '-y'
    angle: float  # radians
    w_const: float
    w_delta: float

    def __post_init__(self):
        if self.axis not in ("+x", "-x", "+y", "-y"):
            raise ValueError(f"rotation axis must be +-x or +-y, got {self.axis!r}")

    def weight(self, delta):
        return self.w_const + self.w_delta * delta

    def rotation(self):
        ang = self.angle
        if self.axis[0] == "-":
            ang = -ang
        a = PAULI[self.axis[-1]]
        return np.cos(ang / 2) * np.eye(2) - 1j * np.sin(ang / 2) * a


BUILT_IN = {
    # Decoupled cycle. Pulse axes in the toggled frame: x z z y y z z x;
    # toggled detuning axes -z -x -y +z -z +y +x +z sum to zero within the
    # unit-weight and the Delta-weight step classes separately.
    "dd": (
        PulseStep("+x", np.deg2rad(180.0), 1.0, 0.0),
        PulseStep("+y", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+x", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+y", np.deg2rad(90.0), 1.0, 0.0),
        PulseStep("+x", np.deg2rad(180.0), 1.0, 0.0),
        PulseStep("+y", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+x", np.deg2rad(-90.0), 0.0, 0.5),
        PulseStep("+y", np.deg2rad(90.0), 1.0, 0.0),
    ),
    # Same pulse pattern and weights as dd, but the toggled detuning axes of
    # the Delta-weight steps sum to -2x -2y: no echo.
    "plain": (
        PulseStep("+x", np.deg2rad(180.0), 1.0, 0.0),
        PulseStep("+y", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+x", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+y", np.deg2rad(90.0), 1.0, 0.0),
        PulseStep("+x", np.deg2rad(180.0), 1.0, 0.0),
        PulseStep("+y", np.deg2rad(-90.0), 0.0, 0.5),
        PulseStep("+x", np.deg2rad(90.0), 0.0, 0.5),
        PulseStep("+y", np.deg2rad(-90.0), 1.0, 0.0),
    ),
}


class PulseSequence:
    """Cyclic rotation+pulse schedule with frame bookkeeping.

    Attributes of note: ``toggled_pulse_axes`` (which pair Hamiltonian each
    pulse realizes), ``toggled_detuning_axes`` (signed axis the lab-frame
    sz detuning is rotated onto), and ``final_rotations`` mapping step
    count n (mod cycle) to the 2x2 corrective rotation R_f,n.
    """

    def __init__(self, steps, name="custom"):
        self.steps = tuple(steps)
        self.name = name
        if not self.steps:
            raise ValueError("empty pulse sequence")
        self._analyze()
        self._validate()

    @classmethod
    def built_in(cls, name):
        if name not in BUILT_IN:
            raise ValueError(f"unknown built-in sequence {name!r}")
        return cls(BUILT_IN[name], name=name)

    @property
    def cycle_len(self):
        return len(self.steps)

    def _analyze(self):
        frames = [np.eye(2, dtype=complex)]
        for s in self.steps:
            frames.append(s.rotation() @ frames[-1])
        self.frames = frames
        self.final_rotations = [C.conj().T for C in frames]  # R_f,n = C_n^dag
        self.toggled_pulse_axes = [self._toggled(C, "x")[1] for C in frames[1:]]
        self.toggled_detuning_axes = [self._toggled(C, "z") for C in frames[1:]]

    @staticmethod
    def _toggled(C, axis):
        M = C.conj().T @ PAULI[axis] @ C
        for name, P in PAULI.items():
            c = np.trace(P @ M).real / 2
            if abs(abs(c) - 1) < 1e-9:
                return (1 if c > 0 else -1), name
        raise ValueError(
            "rotation sequence leaves a pulse off the +-x/+-y/+-z axes; "
            "only quarter- and half-turn frames are supported"
        )

    def _validate(self):
        C = self.frames[-1]
        if abs(C[0, 1]) + abs(C[1, 0]) > 1e-9 or abs(abs(C[0, 0]) - 1) > 1e-9:
            raise ValueError(
                f"sequence {self.name!r} violates the cycle invariant: the "
                "composed rotations do not return the frame to identity"
            )
        # wall time on x-, y- and z-type pulses must come out 1 : 1 : Delta at
        # every Delta: their (sum w_const, sum w_delta) are (c, 0), (c, 0), (0, c)
        wall = np.zeros((3, 2))
        for s, ax in zip(self.steps, self.toggled_pulse_axes):
            wall["xyz".index(ax)] += (s.w_const, s.w_delta)
        c = float(wall[0, 0])
        if not c > 0:  # also rejects NaN
            raise ValueError("sequence never realizes an XX substep")
        if np.abs(wall - c * np.array([[1, 0], [1, 0], [0, 1]])).max() > 1e-9 * c:
            raise ValueError(
                f"sequence {self.name!r} wall times (const, per Delta) on x, y, z = "
                f"{wall.tolist()}; the target ratio 1:1:Delta needs (c, 0), (c, 0), (0, c)")
        self.cycle_effective = 3.0 * c  # effective XXZ time per cycle, in units of tau

    def detuning_cancels(self):
        """True if the toggled detuning sums to zero for every Delta."""
        sums = {}
        for s, (sign, ax) in zip(self.steps, self.toggled_detuning_axes):
            for part, w in (("const", s.w_const), ("delta", s.w_delta)):
                vec = sums.setdefault(part, np.zeros(3))
                vec["xyz".index(ax)] += sign * w
        return all(np.allclose(v, 0.0, atol=1e-12) for v in sums.values())


@lru_cache(maxsize=2)
def _pulse_blocks(L):
    """([(Q_even, Q_odd) per z-parity], Q, Q^T): the sparse (2^L, d) isometries
    onto the z-parity x reflection blocks, and Q = [Q_1 .. Q_4] as CSR."""
    bits = full_space_bits(L)
    mirror = bits[:, ::-1] @ (1 << np.arange(L))  # row of the reversed config
    pairs = []
    for parity in (0, 1):
        keep = np.flatnonzero(bits.sum(axis=1) % 2 == parity)
        embed = sparse.identity(1 << L, format="csr")[:, keep]
        half = _reflection_isometry(np.searchsorted(keep, mirror[keep]))
        pairs.append([embed @ q for q in half])
    stacked = sparse.hstack([q for pair in pairs for q in pair], format="csr")
    return pairs, stacked, stacked.T.tocsr()


@lru_cache(maxsize=1)
def _xx_blocks(L, alpha, J, boundary):
    """H_XX's four z-parity x reflection blocks in ``_pulse_blocks`` order, as
    (dense q^T H_XX q, 2n - L per column). The detuning term (d/2) sum_j sz_j
    = (d/2)(2n - L) is a function of the magnon number n, which the site
    reversal keeps, so it is diagonal in every block. The coupling check of
    ``_reflection_projections`` runs here, once per chain."""
    H = build_full_hamiltonian(ModelParams(L=L, alpha=alpha, delta=0.0, J=J,
                                           boundary=boundary))
    magnons = full_space_bits(L).sum(axis=1)
    out = []
    for pair in _pulse_blocks(L)[0]:
        for q, h in zip(pair, _reflection_projections(H, *pair)):
            q = q.tocsc()
            out.append((h, 2.0 * magnons[q.indices[q.indptr[:-1]]] - L))  # a row per column
    return tuple(out)


@lru_cache(maxsize=PULSE_CACHE_ENTRIES)
def _pulse_eigensystem(L, alpha, J, boundary, detuning):
    """H_XX + (detuning/2) sum_j sz_j as four z-parity x reflection blocks
    (Q, evals, V), in ``_pulse_blocks`` order: H_XX flips spins in pairs with
    couplings that depend on |i - j| only, and sum_j sz_j = 2n - L. Each block
    is one of ``_xx_blocks`` with detuning/2 (2n - L) added to its diagonal.

    Only detuning >= 0 is cached: a sweep runs -detuning through the global
    spin flip (``_pulse_loop``), so a negative key raises ValueError.
    """
    if not detuning >= 0:  # also rejects NaN
        raise ValueError(f"the pulse eigensystem is cached for |detuning| only, got {detuning}")
    qs = [q for pair in _pulse_blocks(L)[0] for q in pair]
    out = []
    for q, (h, spin) in zip(qs, _xx_blocks(L, alpha, J, boundary)):
        if detuning:
            h = h.copy()
            h[np.diag_indices_from(h)] += 0.5 * detuning * spin
        out.append((q, *np.linalg.eigh(h)))
    return tuple(out)


def _pulse_block_dims(L):
    """Dims of the four ``_pulse_blocks`` in order, in closed form: each
    z-parity holds 2^(L-1) configurations, and its reflection-even block
    exceeds the odd one by the palindromes of that parity (all of them for
    even L, half for odd L)."""
    half = 1 << (L - 1)
    pal = 1 << ((L + 1) // 2)
    return [(half + sign * p) // 2
            for p in ((pal, 0) if L % 2 == 0 else (pal // 2, pal // 2))
            for sign in (1, -1)]


def _sweep_chunk(L):
    """(detuning magnitudes per ``floquet_sweep`` chunk, eigenvector bytes per
    magnitude, which are also the bytes of the dense ``_xx_blocks``)."""
    per_magnitude = 8 * sum(d * d for d in _pulse_block_dims(L))
    return max(1, SWEEP_CHUNK_BYTES // per_magnitude), per_magnitude


def check_pulse_length(L):
    """Reject chains whose pulse eigensystem would exceed PULSE_MAX_L."""
    if L > PULSE_MAX_L:
        d = max(_pulse_block_dims(L))
        chunk, per_magnitude = _sweep_chunk(L)
        held = max(chunk, PULSE_CACHE_ENTRIES)
        raise ValueError(
            f"the pulse simulator diagonalizes four dense z-parity x reflection "
            f"blocks, the largest of dim {d} ({8 * d * d} bytes at L={L}), and a "
            f"detuning sweep retains the eigenvectors of {held} detuning magnitudes "
            f"({held * per_magnitude} bytes: chunks of {chunk}, and the last "
            f"{PULSE_CACHE_ENTRIES} stay cached) and H_XX's dense blocks "
            f"({per_magnitude} bytes), {(held + 1) * per_magnitude} bytes in all; "
            "a cold start took 0.9 s at 148 MiB peak RSS at L=12, growing toward "
            f"8x in time per site, and it is limited to L <= {PULSE_MAX_L}"
        )


def _site_groups(u, L):
    """Kronecker products of the 2x2 rotation u on three sites each (fewer in
    the last group when 3 does not divide L)."""
    return [reduce(np.kron, [u] * min(3, L - q)) for q in range(0, L, 3)]


def _apply_global_rotation(groups, psi):
    """Apply ``_site_groups`` products to every column of a full-space block.

    Site q is bit q of the first axis, so the middle axis of the
    (-1, 8, 8^g * columns) view holds the sites of group g, and one batched
    product rotates them in every column.
    """
    shape = psi.shape
    columns = psi.size // shape[0]
    for g, u in enumerate(groups):
        psi = np.matmul(u, psi.reshape(-1, len(u), 8**g * columns))
    return psi.reshape(shape)


def _rotate_columns(groups, keys, psi):
    """Rotate sequence column s of the (2^L, n_col, n_seq) block by
    groups[keys[s]]: one batched product when every sequence agrees."""
    if all(key == keys[0] for key in keys):
        return _apply_global_rotation(groups[keys[0]], psi)
    out = np.empty_like(psi)
    for s, key in enumerate(keys):
        out[..., s] = _apply_global_rotation(groups[key], psi[..., s])
    return out


def _pulse_step(eigs, phases, spans, q, q_t, psi):
    """exp(-iH_i w_s) on the columns spans[i] of the (2^L, n_col, n_seq) block.

    q_t and q (at most two entries per row and column) map every column
    into and out of the stacked block coordinates at once. There, block b
    of magnitude i, with eigenvectors V and phases[i][b] of shape
    (d, width * n_seq), replaces the rows z of all its columns by one
    spectral step V (phase * V^T z).
    """
    shape = psi.shape
    z = (q_t @ psi.reshape(shape[0], -1)).reshape(shape)
    for (lo, hi), blocks, block_phases in zip(spans, eigs, phases):
        start = 0
        for (_, _, v), phase in zip(blocks, block_phases):
            stop = start + len(v)
            rows = z[start:stop, lo:hi]
            rows[...] = _spectral_step(v, phase, rows.reshape(len(v), -1)).reshape(rows.shape)
            start = stop
    return (q @ z.reshape(shape[0], -1)).reshape(shape)


def _pulse_phases(eigs, spans, flip, w, switch):
    """phases[i][b] for ``_pulse_step``: exp(-i E w_s) for column (c, s) of
    span i, times -1 on the odd z-parity blocks (the last two) where column c
    is flipped and sequence s switches frame (``_pulse_loop``)."""
    sign = np.where(np.outer(flip, switch), -1.0, 1.0)
    signs = (np.ones_like(sign), sign)
    return [[(np.exp(-1j * np.multiply.outer(e, w))[:, None] * signs[b // 2][lo:hi]
              ).reshape(len(e), -1) for b, (_, e, _) in enumerate(blocks)]
            for (lo, hi), blocks in zip(spans, eigs)]


def _pulse_inputs(params, psi0, n_steps):
    """The validated full-space state of a pulsed run."""
    check_pulse_length(params.L)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    if vec.shape != (2**params.L,):
        raise ValueError("psi0 must be a full-space state")
    return vec


def _tau(seq, n_steps, t_eff):
    """Pulse unit of a run: one cycle advances cycle_effective * tau."""
    return t_eff * seq.cycle_len / (seq.cycle_effective * n_steps)


def _pulse_loop(seqs, params, eigs, spans, flip, psi, n_steps, t_eff):
    """Step the (2^L, n_col, n_seq) block psi through n_steps pulses.

    Column (c, s) runs seqs[s] with its own tau; the columns spans[i] run
    under the pulse eigensystem eigs[i] of a detuning magnitude |d|, at +|d|,
    or at -|d| where flip[c]. Each rotation is one batched product over the
    block, or one per sequence where the sequences' rotations differ; the
    phases of each distinct tuple of per-column weights are formed once.

    A flipped column holds F psi in place of psi, with F = X = prod_j sx_j
    before a rotation about x and F = Z X, Z = prod_j sz_j, before one about
    y. Both commute with their rotations and map H_XX - (|d|/2) sum_j sz_j
    onto H_XX + (|d|/2) sum_j sz_j, so the rotations and the spectral step
    of a magnitude are shared by both signs. Z, (-1) to the magnon number,
    is -1 on the odd z-parity blocks: where F switches, the pulse step's
    phases carry it (or, where no pulse runs, one sign flip of those
    columns). X reverses the full-space index, so F is applied and undone
    in one copy each.
    Returns the final block, each sequence's corrective rotation R_f,n applied.
    """
    _, q, q_t = _pulse_blocks(params.L)
    taus = [_tau(seq, n_steps, t_eff) for seq in seqs]
    groups = {}  # rotation key -> _site_groups, shared by equal rotations
    for seq in seqs:
        for s in seq.steps:
            if (s.axis, s.angle) not in groups:
                groups[s.axis, s.angle] = _site_groups(s.rotation(), params.L)
    flipped = bool(flip.any())
    parity = 1.0 - 2.0 * (full_space_bits(params.L).sum(axis=1) % 2) if flipped else None

    def about_y(n):  # per sequence: F = Z X before step n; X after the last step
        return np.array([n <= n_steps and seq.steps[(n - 1) % seq.cycle_len].axis[1] == "y"
                         for seq in seqs]) & flipped

    def switch_frame(switch):  # F -> Z F on the flipped columns of switching sequences
        for s in np.flatnonzero(switch):
            psi[:, flip, s] *= parity[:, None]

    if flipped:
        psi[:, flip] = psi[::-1, flip]
        switch_frame(about_y(1))
    phases = {}
    for n in range(1, n_steps + 1):
        steps = [seq.steps[(n - 1) % seq.cycle_len] for seq in seqs]
        psi = _rotate_columns(groups, [(s.axis, s.angle) for s in steps], psi)
        w = tuple(s.weight(params.delta) * tau for s, tau in zip(steps, taus))
        switch = about_y(n) != about_y(n + 1)
        if any(w):
            key = (w, switch.tobytes())
            if key not in phases:
                phases[key] = _pulse_phases(eigs, spans, flip, w, switch)
            psi = _pulse_step(eigs, phases[key], spans, q, q_t, psi)
        else:
            switch_frame(switch)
    if flipped:
        psi[:, flip] = psi[::-1, flip]
    finals = [seq.final_rotations[n_steps % seq.cycle_len] for seq in seqs]
    keys = [rf.tobytes() for rf in finals]
    frames = {key: _site_groups(rf, params.L) for key, rf in zip(keys, finals)}
    return _rotate_columns(frames, keys, psi)


def floquet_evolve(seq, params, psi0, n_steps, t_eff, detuning=0.0):
    """The full-space state after n_steps pulses of seq, toward effective time t_eff.

    tau is fixed by the cycle bookkeeping (4 t_eff / (3 n_steps) for the
    8-step built-ins). R_f,n is applied, so the ``StateVector`` is in the
    computational frame. This is the one-detuning, one-sequence case of
    ``floquet_sweep``'s loop.
    """
    if isinstance(seq, str):
        seq = PulseSequence.built_in(seq)
    vec = _pulse_inputs(params, psi0, n_steps)
    detuning = float(detuning)
    eig = _pulse_eigensystem(params.L, params.alpha, params.J, params.boundary,
                             abs(detuning))
    psi = _pulse_loop([seq], params, [eig], [(0, 1)], np.array([detuning < 0]),
                      vec.astype(complex)[:, None, None], n_steps, t_eff)
    return StateVector(data=psi.reshape(-1), basis=("full", params.L))


def floquet_sweep(seqs, params, psi0, n_steps, t_eff, detunings, reference):
    """|<reference|psi>|^2 after n_steps pulses, per detuning and sequence.

    Returns a (len(detunings), len(seqs)) array whose (i, s) entry equals
    ``fidelity(floquet_evolve(seqs[s], params, psi0, n_steps, t_eff,
    detunings[i]), reference)`` to roundoff. All runs step together as one
    (2^L, n_det, n_seq) block, so each pulse costs a few batched products
    instead of one set per run. The detunings of one magnitude share its
    eigensystem, read from ``_pulse_eigensystem``, and magnitudes go in
    chunks whose eigenvectors fit in SWEEP_CHUNK_BYTES (one magnitude per
    chunk when one alone is larger).
    """
    seqs = [PulseSequence.built_in(s) if isinstance(s, str) else s for s in seqs]
    if not seqs:
        raise ValueError("floquet_sweep needs at least one sequence")
    vec = _pulse_inputs(params, psi0, n_steps)
    ref = reference.data if isinstance(reference, StateVector) else np.asarray(reference)
    if ref.shape != vec.shape:
        raise ValueError("reference must be a full-space state")
    detunings = np.asarray(detunings, dtype=float)
    magnitudes, which = np.unique(np.abs(detunings), return_inverse=True)
    # the detunings of magnitude m are order[edges[m]:edges[m + 1]]
    order = np.argsort(which, kind="stable")
    edges = np.searchsorted(which[order], np.arange(len(magnitudes) + 1)).tolist()
    chunk = _sweep_chunk(params.L)[0]
    out = np.empty((len(detunings), len(seqs)))
    from .spectral import _blas_threads

    with _blas_threads(max(_pulse_block_dims(params.L)), give_back_only=True):
        for lo in range(0, len(magnitudes), chunk):
            hi = min(lo + chunk, len(magnitudes))
            cols = order[edges[lo]:edges[hi]]
            spans = [(edges[m] - edges[lo], edges[m + 1] - edges[lo]) for m in range(lo, hi)]
            eigs = [_pulse_eigensystem(params.L, params.alpha, params.J, params.boundary,
                                       float(m))
                    for m in magnitudes[lo:hi]]
            psi = np.repeat(vec.astype(complex)[:, None], len(cols) * len(seqs), axis=1)
            psi = _pulse_loop(seqs, params, eigs, spans, detunings[cols] < 0,
                              psi.reshape(-1, len(cols), len(seqs)), n_steps, t_eff)
            out[cols] = np.abs(
                ref.conj() @ psi.reshape(vec.size, -1)).reshape(len(cols), len(seqs)) ** 2
    return out
