"""Time evolution engines for the long-range XXZ chain.

Three propagators with one state convention:

* ``propagate``: psi(t) = exp(-iHt) psi0 on a whole time grid, through the
  cached eigensystem of a sector Hamiltonian, which is stored as its
  reflection-even and -odd blocks (Q, eigenvalues, V) and never as a
  (dim, dim) eigenvector matrix. Per block the eigenbasis coefficients
  V^T Q^T psi0 are formed once and every time point costs one real matrix
  product with Q V, restricted to the rows the caller reads: the result
  is (n_times, len(rows)), or (n_times, dim) for every row.
  ``exact_evolve`` is its single-time case. Quench maps, beat and pair
  spectroscopy and the entropy time series all read their states from
  it; pair spectroscopy asks only for the rows its readout touches.
* ``krylov_evolve``: the action of exp(-iHt) on one state from sparse
  matrix products (``scipy.sparse.linalg.expm_multiply``), for sectors too
  large to diagonalize. Nothing in the experiments calls it; it stays as
  the large-sector fallback that the ``EXACT_DIM_MAX`` guard points to.
* ``floquet_evolve``: the pulsed realization. Each step applies a global
  rotation about +-x/+-y followed by evolution under the bare XX coupling
  Hamiltonian (plus an optional detuning term (delta_err/2) sum_j sz_j that
  models a drive-frequency offset, active during pulses). In the toggled
  frame the pulses realize XX-, YY- and ZZ-type substeps whose wall-time
  ratio 1 : 1 : Delta makes the cycle average equal to the target
  (1/3)(XX + YY + Delta ZZ) Hamiltonian, with one (tau, tau, Delta tau)
  substep group advancing effective time by 3 tau.

The spectral steps of ``propagate`` and ``floquet_evolve`` share one
primitive, ``_real_spectral_step``: the sector Hamiltonians and the pulse
Hamiltonian H_XX + (delta_err/2) sum_j sz_j are real symmetric, so their
eigenvectors V are real and V exp(-iEt) V^T psi is formed from real
matrix products on the real and imaginary parts of psi, with no complex
copy of V. A (dim,) phase gives one state, a (dim, n_times) phase a whole
time grid, and an optional output matrix (Q V restricted to some rows, in
place of V) maps the phased coefficients to the rows a caller reads. The
global rotation acts on a (-1, 2, 2^q) view of the state for each site q
(site q is bit q), so no axis is moved or copied.

Pulse sequences are data: a ``PulseSequence`` is a cycle of ``PulseStep``s,
each a rotation about +x, -x, +y or -y by an angle in radians followed by a
pulse of duration w_const + w_delta * Delta in units of tau. The two
built-ins are tuples of steps in ``BUILT_IN``: ``dd``, whose toggled
detuning axes cancel within each weight class (first-order dynamical
decoupling for every Delta), and ``plain``, with the same pulse pattern
but uncancelled detuning. Both end their 8-step cycle with the frame back
at identity; at intermediate step counts the inverse accumulated frame
R_f,n is applied before readout.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    ModelParams,
    SectorOperator,
    StateVector,
    build_full_hamiltonian,
    full_space_bits,
)

EXACT_DIM_MAX = 20_000
# The pulse simulator diagonalizes a dense 2^L x 2^L float64 matrix. A cold
# start took 0.2 s at L=10, 1.3 s at L=11 and 10 s at 700 MiB peak RSS at
# L=12 on 2 cores, growing about 8x in time and 3-4x in memory per site.
PULSE_MAX_L = 12
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
    Per reflection block (Q, E, V) of ``H.eigensystem()`` the
    coefficients V^T Q^T psi0 are formed once, and all phases are applied
    by real matrix products with Q[rows] V. A scalar t gives one
    (len(rows),) state with matrix-vector arithmetic.
    """
    if H.dim > EXACT_DIM_MAX:
        raise ValueError(
            f"dimension {H.dim} exceeds exact-diagonalization guard "
            f"{EXACT_DIM_MAX}: its two dense reflection blocks would take about "
            f"{4 * H.dim**2} bytes together and their eigenvectors as many "
            f"again; use krylov_evolve"
        )
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    if vec.shape != (H.dim,):
        raise ValueError(f"state length {vec.shape} does not match dim {H.dim}")
    n_out = H.dim if rows is None else len(rows)
    out = np.zeros((n_out,) + np.shape(times), dtype=complex)
    for q, evals, evecs in H.eigensystem():
        phase = np.exp(-1j * np.multiply.outer(evals, times))
        readout = (q if rows is None else q[rows]) @ evecs
        out += _real_spectral_step(evecs, phase, q.T @ vec, readout)
    return out.T


def exact_evolve(H, psi0, t):
    """psi(t) = exp(-iHt) psi0: the single-time case of ``propagate``."""
    out = propagate(H, psi0, t)
    if isinstance(psi0, StateVector):
        return StateVector(data=out, basis=psi0.basis)
    return out


def _real_spectral_step(evecs, phase, psi, readout=None):
    """readout @ (phase * (evecs.T @ psi)) for real orthogonal evecs.

    phase is (d,) for one state or (d, n_times) for one state per column;
    readout, a real (n_out, d) matrix, defaults to evecs. The real and
    imaginary parts of psi go through separate real products, so no
    matrix is conjugated or upcast to complex.
    """
    if np.iscomplexobj(evecs):
        raise TypeError("the spectral step needs real eigenvectors")
    if readout is None:
        readout = evecs
    coef = evecs.T @ psi.real + 1j * (evecs.T @ psi.imag)
    if phase.ndim == 2:
        coef = coef[:, None]
    coef = coef * phase
    return readout @ coef.real + 1j * (readout @ coef.imag)


def krylov_evolve(H, psi0, t):
    """psi(t) = exp(-iHt) psi0 by the action of the sparse exponential.

    ``scipy.sparse.linalg.expm_multiply`` (truncated Taylor series with
    scaling, Al-Mohy & Higham 2011) applies the exponential with matrix
    products only, for sectors too large to diagonalize. The import stays
    here so that the experiments, which never call this, do not load it.
    """
    from scipy.sparse.linalg import expm_multiply

    mat = H.matrix if isinstance(H, SectorOperator) else H
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    out = expm_multiply(-1j * t * mat, vec.astype(complex))
    if isinstance(psi0, StateVector):
        return StateVector(data=out, basis=psi0.basis)
    return out


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

    def rotation(self, scale=1.0):
        ang = self.angle * scale
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

    def weights(self, delta):
        return np.array([s.weight(delta) for s in self.steps])

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
        # wall time on x-, y- and z-type pulses must come out 1 : 1 : Delta
        for delta in (1.0, 2.7):
            wall = {"x": 0.0, "y": 0.0, "z": 0.0}
            for s, ax in zip(self.steps, self.toggled_pulse_axes):
                wall[ax] += s.weight(delta)
            if wall["x"] <= 0:
                raise ValueError("sequence never realizes an XX substep")
            if (abs(wall["y"] - wall["x"]) > 1e-9 * wall["x"]
                    or abs(wall["z"] - delta * wall["x"]) > 1e-9 * wall["x"]):
                raise ValueError(
                    f"sequence {self.name!r} wall times x:y:z = "
                    f"{wall['x']:g}:{wall['y']:g}:{wall['z']:g} at Delta="
                    f"{delta:g}; the target ratio is 1:1:{delta:g}"
                )
        # effective XXZ time advanced per cycle, in units of tau
        self.cycle_effective = 3.0 * sum(
            s.w_const for s, ax in zip(self.steps, self.toggled_pulse_axes)
            if ax == "x"
        )

    def detuning_cancels(self):
        """True if the toggled detuning sums to zero for every Delta."""
        sums = {}
        for s, (sign, ax) in zip(self.steps, self.toggled_detuning_axes):
            for part, w in (("const", s.w_const), ("delta", s.w_delta)):
                vec = sums.setdefault(part, np.zeros(3))
                vec["xyz".index(ax)] += sign * w
        return all(np.allclose(v, 0.0, atol=1e-12) for v in sums.values())

    def symmetrized(self):
        """Mirror each cycle at half weight: second-order splitting.

        Steps become (g_1, w_1/2) .. (g_8, w_8/2), an identity rotation with
        the repeated half of the last pulse, the inverse rotations in
        reverse order carrying the remaining half weights, and a closing
        zero-weight rotation that restores the cycle-identity invariant.
        """
        flip = {"+": "-", "-": "+"}

        def inverse_axis(s):
            return flip[s.axis[0]] + s.axis[1]

        steps = [
            PulseStep(s.axis, s.angle, s.w_const / 2, s.w_delta / 2)
            for s in self.steps
        ]
        last = self.steps[-1]
        steps.append(PulseStep("+x", 0.0, last.w_const / 2, last.w_delta / 2))
        for j in range(len(self.steps) - 1, 0, -1):
            g, prev = self.steps[j], self.steps[j - 1]
            steps.append(
                PulseStep(inverse_axis(g), g.angle, prev.w_const / 2, prev.w_delta / 2)
            )
        first = self.steps[0]
        steps.append(PulseStep(inverse_axis(first), first.angle, 0.0, 0.0))
        return PulseSequence(steps, name=self.name + "+mirror")


@dataclass
class EvolutionReport:
    """Outcome of a pulsed run: effective times of the recorded snapshots
    (final rotation applied), the final state, and bookkeeping."""

    times: np.ndarray
    states: list
    state: StateVector
    n_steps: int
    tau: float
    detuning: float
    sequence: str
    fidelity: float | None = None


def _pulse_hamiltonian(L, alpha, J, boundary, detuning):
    """Dense H_XX plus the detuning field, in a single float64 matrix."""
    params = ModelParams(L=L, alpha=alpha, delta=0.0, J=J, boundary=boundary)
    H = build_full_hamiltonian(params).toarray()
    if detuning:
        magnons = full_space_bits(L).sum(axis=1)  # sum_j sz_j = 2 n - L
        H[np.diag_indices_from(H)] += 0.5 * detuning * (2.0 * magnons - L)
    return H


@lru_cache(maxsize=4)
def _pulse_eigensystem(L, alpha, J, boundary, detuning):
    return np.linalg.eigh(_pulse_hamiltonian(L, alpha, J, boundary, detuning))


def check_pulse_length(L):
    """Reject chains whose dense pulse eigensystem would exceed PULSE_MAX_L."""
    if L > PULSE_MAX_L:
        raise ValueError(
            f"the pulse simulator diagonalizes a dense 2^{L} x 2^{L} matrix "
            f"({8 * 4**L} bytes at L={L}), and LAPACK's eigh holds about five "
            "such matrices at once (702 MiB peak RSS measured at L=12); it is "
            f"limited to L <= {PULSE_MAX_L}"
        )


def _apply_global_rotation(site_rotations, psi):
    """Apply site_rotations[q] to site q of a full-space state.

    Site q is bit q, so the middle axis of the (-1, 2, 2^q) view is that
    site and one batched 2x2 product rotates it without moving any axis.
    """
    for q, u in enumerate(site_rotations):
        psi = np.matmul(u, psi.reshape(-1, 2, 1 << q))
    return psi.reshape(-1)


def floquet_evolve(seq, params, psi0, n_steps, t_eff, detuning=0.0,
                   reference=None, second_order=False, rotation_scale=None,
                   record_every=None):
    """Run n_steps pulses of the sequence, targeting effective time t_eff.

    tau is fixed by the cycle bookkeeping (4 t_eff / (3 n_steps) for the
    8-step built-ins). The corrective rotation R_f,n is applied to every
    recorded snapshot and to the final state, so all outputs live in the
    computational frame. ``rotation_scale`` (length-L factors on every
    rotation angle) emulates inhomogeneous pulse amplitudes; R_f,n stays
    ideal since it is analysis-side bookkeeping, not a hardware pulse.
    ``reference`` (full-space array) pins report.fidelity at the end.
    """
    if isinstance(seq, str):
        seq = PulseSequence.built_in(seq)
    if second_order:
        seq = seq.symmetrized()
    check_pulse_length(params.L)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    vec = psi0.data if isinstance(psi0, StateVector) else np.asarray(psi0)
    if vec.shape != (2**params.L,):
        raise ValueError("psi0 must be a full-space state")
    if rotation_scale is not None:
        rotation_scale = np.asarray(rotation_scale, dtype=float)
        if rotation_scale.shape != (params.L,):
            raise ValueError("rotation_scale must provide one factor per site")

    # uniform effective-time smear: one cycle advances cycle_effective * tau
    tau = t_eff * seq.cycle_len / (seq.cycle_effective * n_steps)
    eff_per_step = t_eff / n_steps
    evals, evecs = _pulse_eigensystem(
        params.L, params.alpha, params.J, params.boundary, float(detuning)
    )
    weights = seq.weights(params.delta) * tau
    phases = [np.exp(-1j * evals * w) if w else None for w in weights]
    if rotation_scale is None:
        pulses = [[s.rotation()] * params.L for s in seq.steps]
    else:
        pulses = [[s.rotation(scale=f) for f in rotation_scale] for s in seq.steps]

    psi = vec.astype(complex)
    times, states = [], []
    for n in range(1, n_steps + 1):
        k = (n - 1) % seq.cycle_len
        psi = _apply_global_rotation(pulses[k], psi)
        if phases[k] is not None:
            psi = _real_spectral_step(evecs, phases[k], psi)
        if record_every and n % record_every == 0 and n < n_steps:
            rf = seq.final_rotations[n % seq.cycle_len]
            snap = _apply_global_rotation([rf] * params.L, psi)
            times.append(n * eff_per_step)
            states.append(StateVector(data=snap, basis=("full", params.L)))

    rf = seq.final_rotations[n_steps % seq.cycle_len]
    psi = _apply_global_rotation([rf] * params.L, psi)
    final = StateVector(data=psi, basis=("full", params.L))
    times.append(t_eff)
    states.append(final)
    fid = None if reference is None else fidelity(final.data, reference)
    return EvolutionReport(
        times=np.array(times), states=states, state=final, n_steps=n_steps,
        tau=tau, detuning=detuning, sequence=seq.name, fidelity=fid,
    )
