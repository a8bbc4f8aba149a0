"""Measurement protocols on the long-range XXZ chain.

Four probe families, all returning exact expectation values (sampled
emulation lives in the sampling module):

* plane-wave interference spectroscopy of the one-magnon band: a weak
  global rotation with site profile A_j = sqrt(2/L) sum_k sin(k j)
  populates standing waves; the site-resolved occupation beats at the
  band-energy difference.
* two-magnon spectroscopy: a short Ising evolution exp(-i t H_XX)|0>
  followed by the phase imprint exp(-i sum_j (phi_j/2) sz_j) with
  phi_j = k j / 2 populates adjacent magnon pairs at pair momentum k;
  the pair coherence <sm_j sm_{j+1}> then oscillates at the two-magnon
  excitation energy. The Ising propagator is evaluated exactly in the
  x basis, its energies built from two half-chain tables and one cross
  product, and rotated back with a fast Walsh-Hadamard transform, once
  per chain, in place on one real 2^L table: first the real parts, then
  the imaginary parts, each read only at the sector rows. Each momentum
  imprints its phases on the cached sector components, one column per
  momentum, and every sector's (dim, m) block is evolved by
  ``evolve.propagate`` in one pass, on only the rows the pair readout in
  the window touches; the pair coherence is gathered from those
  site-basis trajectories. A single call runs a one-column ladder. A call
  that names its momentum grid (``scan``) runs the whole grid on its
  first call, so the sparse products of each order serve all m momenta
  at once, and keeps only the grid's pair signals for its other momenta.
  ``propagate`` runs the small sectors (n = 0, 2 at L=20) through their
  cached reflection blocks and the large ones (n = 4, dim 4845 at L=20)
  through a Chebyshev series of sparse products, so no dense eigensystem
  of n = 4 is formed.
  The whole ladder (preparation, eigensystems, series and contraction)
  runs on one BLAS thread, which otherwise spins between its short calls;
  ``propagate`` gives the starting thread count back to a dense block of
  ``ONE_THREAD_BELOW_DIM`` or more, and to nothing else.
* quench light cones: site and adjacent-pair projector maps from an
  initial two-magnon product state, plus the renormalized adjacent-pair
  participation (sum_j <P_j,j+1> - 2/L)/(1 - 2/L).
* front tracking: half-maximum crossings of a spacetime map, linearly
  interpolated, fit to a line for the spreading velocity.

Time arguments are dimensionless (t J); internally they are divided by
params.J, so extracted angular frequencies come out in units of J as
well. Sites and momenta use 1-based labels, k = pi n/(L+1) for the
open-chain standing waves.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evolve import propagate
from .model import (
    ModelParams,
    StateVector,
    _check_full_space,
    coupling_matrix,
    enumerate_sector,
    full_space_bits,
    sector_hamiltonian,
    sector_state_from_sites,
    zz_energies,
)
from .spectral import _blas_threads

SPECTRO_ONE_TMAX = 16.0  # default sampling windows, in units of 1/J
SPECTRO_TWO_TMAX = 8.0
N_SAMPLES = 64  # points of every spectroscopy time grid
PAD = 4  # zero-padding factor for spectral interpolation
T_PREP_J = 0.19  # Ising preparation time of the two-magnon spectroscopy
FRONT_EDGE_MARGIN = 2  # front_velocity drops fronts this close to the last site
_BUTTERFLY_RUN = 1 << 16  # see _walsh_hadamard
_ISING_BLOCK = 1 << 14  # x-basis energies per block, see _ising_prep


# ------------------------------------------------------------- containers


@dataclass
class PreparedState:
    """Post-selected preparation: sector state plus bookkeeping."""

    state: StateVector
    weight: float  # norm^2 kept by the sector projection


@dataclass
class SpectroscopySignal:
    times: np.ndarray  # t J grid
    values: np.ndarray  # (n_series, n_times) raw site signals
    freqs: np.ndarray  # angular frequencies, units of J
    magnitude: np.ndarray  # spectrum averaged over series
    frequency: float  # interpolated dominant peak
    resolution: float  # unpadded bin width 2 pi / (T J)
    contrast: float | None = None  # main peak over runner-up
    neglected_weight: float | None = None


@dataclass
class SpacetimeMap:
    """Projector expectations on a times x labels grid."""

    times: np.ndarray
    labels: np.ndarray  # 1-based site (or left-site-of-pair) labels
    values: np.ndarray  # (n_times, n_labels)
    name: str = ""

    def __post_init__(self):
        lo, hi = self.values.min(), self.values.max()
        if lo < -1e-9 or hi > 1 + 1e-9:
            raise ValueError(
                f"projector map {self.name!r} out of range: [{lo:g}, {hi:g}]"
            )


@dataclass
class FrontFit:
    velocity: float
    residual: float  # rms deviation of the fit
    times: np.ndarray  # t J values used
    positions: np.ndarray  # interpolated front sites
    n_excluded: int


@dataclass
class CrossoverCurve:
    deltas: np.ndarray
    participation: np.ndarray
    compare_participation: np.ndarray | None = None
    compare_label: str = ""


# ------------------------------------------------------------- spectra


def spectral_peak(times_J, values, two_sided=False):
    """Hann-windowed, ``PAD``-fold zero-padded magnitude spectrum and its
    main peak.

    values: (n_series, n_times); per-series means are removed (the
    projector signals carry large static parts), magnitudes averaged,
    and the peak position refined by parabolic interpolation. Frequencies
    are angular, in the units of 1/times_J. For real signals only
    omega > 0 is searched; two_sided keeps the sign of the rotating
    phase e^{-i omega t} (returned with omega > 0 meaning that sign).
    """
    values = np.atleast_2d(values)
    n = values.shape[1]
    dt = times_J[1] - times_J[0]
    if not np.allclose(np.diff(times_J), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("spectroscopy requires a uniform time grid")
    window = np.hanning(n)
    data = (values - values.mean(axis=1, keepdims=True)) * window
    spec = np.fft.fft(data, n=PAD * n, axis=1)
    freqs = 2 * np.pi * np.fft.fftfreq(PAD * n, d=dt)
    mag = np.abs(spec).mean(axis=0)
    order = np.argsort(freqs)
    freqs, mag = freqs[order], mag[order]

    dc = np.argmin(np.abs(freqs))
    search = mag.copy()
    search[max(0, dc - 1): dc + 2] = 0.0  # kill DC leakage only
    if not two_sided:
        search[freqs < 0] = 0.0
    peak = int(np.argmax(search))
    if search[peak] <= 0 or mag[peak] < 1e-12 * max(mag.max(), 1e-300):
        return freqs, mag, 0.0, None
    shift = _parabolic_offset(mag, peak)
    bin_pad = freqs[1] - freqs[0]
    f_peak = freqs[peak] + shift * bin_pad

    # Runner-up: the tallest point outside the main lobe, where the lobe
    # extends from the peak to the nearest local minimum on each side.
    # A fixed-width exclusion either clips genuine shoulders just past
    # its boundary or swallows the skirt of a broad feature; the lobe
    # boundary adapts to the line shape.
    lo = peak
    while lo > 0 and search[lo - 1] <= search[lo]:
        lo -= 1
    hi = peak
    while hi < len(search) - 1 and search[hi + 1] <= search[hi]:
        hi += 1
    rest = np.concatenate([search[:lo], search[hi + 1:]])
    second = rest.max() if rest.size else 0.0
    contrast = search[peak] / second if second > 0 else np.inf
    if two_sided:
        f_peak = -f_peak  # e^{-i omega t} peaks at bin -omega
    return freqs, mag, f_peak, contrast


def _parabolic_offset(mag, i):
    if i == 0 or i == len(mag) - 1:
        return 0.0
    a, b, c = mag[i - 1], mag[i], mag[i + 1]
    denom = a - 2 * b + c
    return 0.0 if denom == 0 else 0.5 * (a - c) / denom


# ------------------------------------------------------------- one magnon


def standing_wave_momenta(L):
    """Open-chain quantization k = pi n / (L + 1), n = 1..L."""
    return np.pi * np.arange(1, L + 1) / (L + 1)


def _check_standing_wave(k, L):
    n = k * (L + 1) / np.pi
    if abs(n - round(n)) > 1e-9 or not 1 <= round(n) <= L:
        raise ValueError(
            f"k={k:g} is not an open-chain standing wave pi*n/(L+1), n=1..{L}"
        )


def prepare_planewave_one(params, components, gamma=0.7):
    """Weak global x rotation with a standing-wave site profile.

    components: iterable of k or (k, sign). The product state
    prod_j exp(i gamma A_j sx_j)|0> is projected onto the one-magnon
    sector; amplitudes follow from the exact product form
    amp_j = i sin(gamma A_j) prod_{l != j} cos(gamma A_l).
    """
    L = params.L
    if not 0 < gamma < np.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma:g}")
    comps = [(c, 1.0) if np.isscalar(c) else tuple(c) for c in components]
    for k, _ in comps:
        _check_standing_wave(k, L)
    j = np.arange(1, L + 1)
    A = np.sqrt(2.0 / L) * sum(s * np.sin(k * j) for k, s in comps)
    cos_all = np.cos(gamma * A)
    if np.any(cos_all == 0):
        raise ValueError("rotation angle hit pi/2 on a site; reduce gamma")
    amps = 1j * np.sin(gamma * A) * (np.prod(cos_all) / cos_all)
    basis = enumerate_sector(L, 1)
    # one-magnon rows are in site order, so amplitudes map over in that order
    vec = amps[basis.occupations[:, 0]].astype(complex)
    weight = float(np.sum(np.abs(vec) ** 2))
    if weight == 0:
        raise ValueError("rotation produced no one-magnon weight")
    vec /= np.sqrt(weight)
    return PreparedState(
        state=StateVector(data=vec, basis=("sector", L, 1)), weight=weight
    )


def spectroscopy_one(params, k, gamma=0.7, t_max_J=SPECTRO_ONE_TMAX):
    """Beat frequency of the site occupations for a (k, q) superposition,
    with q = pi/(L+1) the slowest standing wave.

    Returns the magnitude-spectrum peak, an estimate of |eps1(k) - eps1(q)|.
    The signal is real, so only the magnitude is resolved. When k equals
    q the two components coincide and their beat is zero by
    construction; the reported frequency is 0 while the residual
    wiggles (the sine profile is not an exact eigenstate of the
    long-range chain) stay visible in the magnitude spectrum.
    """
    q = np.pi / (params.L + 1)
    degenerate = abs(k - q) < 1e-12
    prep = prepare_planewave_one(params, [k] if degenerate else [k, q], gamma=gamma)
    times = np.linspace(0.0, t_max_J, N_SAMPLES, endpoint=False)
    # one-magnon basis rows are the sites in order
    occ = np.abs(propagate(_cached_sector(params, 1), prep.state,
                           times / params.J)) ** 2
    freqs, mag, f_peak, contrast = spectral_peak(times / params.J, occ.T)
    if degenerate:
        f_peak, contrast = 0.0, None
    return SpectroscopySignal(
        times=times, values=occ.T, freqs=freqs, magnitude=mag,
        frequency=abs(f_peak), resolution=2 * np.pi * params.J / t_max_J,
        contrast=contrast,
    )


# ------------------------------------------------------------- two magnon


def _walsh_hadamard(vec):
    """Unnormalized fast Walsh-Hadamard transform of a 2^L vector, in place;
    returns vec.

    The butterflies of span below ``_BUTTERFLY_RUN`` run one run of that many
    entries at a time, all of them while the run is in cache; each wider span
    pairs pieces of half a run. Either way the sums pass through one buffer
    of half a run: 256 KiB for float64, whatever the length of vec. A real
    2^L vector took 0.006, 0.115 and 0.50 s at L = 18, 22 and 24 (best of
    3-7 runs on one core of a shared 2-core Xeon); runs of 2^14 to 2^17
    entries were within 15 % of that.
    """
    run = min(vec.size, _BUTTERFLY_RUN)
    buf = np.empty(run // 2, dtype=vec.dtype)

    def butterfly(top, bottom, out):
        np.add(top, bottom, out=out)
        np.subtract(top, bottom, out=bottom)
        top[...] = out

    for start in range(0, vec.size, run):
        piece = vec[start:start + run]
        h = 1
        while h < run:
            if h < 8:  # pair strided 1-D views: numpy loops over short rows slowly
                for j in range(h):
                    butterfly(piece[j::2 * h], piece[j + h::2 * h], buf[:run // (2 * h)])
            else:
                pairs = piece.reshape(-1, 2, h)
                butterfly(pairs[:, 0], pairs[:, 1], buf.reshape(-1, h))
            h *= 2
    half = run // 2
    while h < vec.size:
        for pair in vec.reshape(-1, 2, h):
            for lo in range(0, h, half):
                butterfly(pair[0, lo:lo + half], pair[1, lo:lo + half], buf)
        h *= 2
    return vec


def _ising_prep(params, t_prep_J, rows=None):
    """exp(-i t H_XX)|all down> at the full-space rows (all when None),
    before any imprint.

    H_XX = sum_{i<j} J_ij sx_i sx_j is diagonal in the x basis, with the
    diagonal of the z-basis H_ZZ, so the propagator is exact: phase the
    Hadamard-transformed vacuum by that diagonal and transform back.

    The diagonal comes from a half-chain split: with h = L // 2 low sites
    and index m = hi 2^h + lo, E[hi, lo] = E_hi[hi] + E_lo[lo]
    + s_hi^T J_cross s_lo, so two half-chain tables and one
    (2^(L-h), 2^h) product replace a (2^L, L) sign table. The transform is
    real, so the real and imaginary parts of exp(-i t E) / 2^L transform
    apart: each in turn is written, ``_ISING_BLOCK`` energies at a time, to
    one real 2^L table, transformed in place and read at the rows kept.
    Both passes take their part of the same complex ``np.exp``, not of
    ``np.cos`` and ``np.sin``, whose kernels may round differently, so
    every amplitude equals that of the transformed complex state.
    """
    L = params.L
    _check_full_space(L)
    h = L // 2
    J = coupling_matrix(params)
    bits_lo, bits_hi = full_space_bits(h), full_space_bits(L - h)
    cross = (2.0 * bits_hi - 1.0) @ J[h:, :h]
    signs_lo = (2.0 * bits_lo - 1.0).T
    e_hi = zz_energies(bits_hi, J[h:, h:])[:, None]
    e_lo = zz_energies(bits_lo, J[:h, :h])
    phase = -1j * (t_prep_J / params.J)
    table = np.empty(1 << L)
    blocks = table.reshape(len(cross), -1)  # row hi holds E[hi, :]
    step = max(1, _ISING_BLOCK >> h)
    keep = slice(None) if rows is None else rows
    out = np.empty(table.size if rows is None else len(rows), dtype=complex)
    for part in ("real", "imag"):
        for hi in range(0, len(blocks), step):
            energies = cross[hi:hi + step] @ signs_lo
            energies += e_hi[hi:hi + step]
            energies += e_lo
            amp = phase * energies
            np.exp(amp, out=amp)
            np.divide(getattr(amp, part), table.size, out=blocks[hi:hi + step])
        getattr(out, part)[...] = _walsh_hadamard(table)[keep]
    return out


def ising_phase_state(params, t_prep_J, phases):
    """exp(-i sum_j (phi_j/2) sz_j) exp(-i t H_XX)|all down>, full space."""
    L = params.L
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (L,):
        raise ValueError(f"need one phase per site, got shape {phases.shape}")
    psi = _ising_prep(params, t_prep_J)
    return _imprint(full_space_bits(L), psi, phases)


def imprint_phases(k, L):
    """phi_j = k j / 2 (1-based j), so phi_j + phi_{j+1} = k j + k/2; an
    array of momenta gives one column of phases each, (L, len(k))."""
    return np.multiply.outer(np.arange(1, L + 1), k) / 2.0


def _imprint(bits, comp, phases):
    """comp times exp(-i sum_j (phi_j/2) sz_j), row by row of the (dim, L) bits;
    (L, m) phases and a (dim, 1) comp give one column per momentum."""
    return comp * np.exp(-1j * (bits @ phases - phases.sum(axis=0) / 2.0))


@lru_cache(maxsize=4)
def _ising_sectors(params, t_prep_J, n_max):
    """Read-only components n = 0, 2, .., n_max of exp(-i t H_XX)|0>.

    The momentum-independent part of every two-magnon preparation, one
    preparation per (params, t_prep_J, n_max); no 2^L array outlives it.
    """
    bases = [enumerate_sector(params.L, n) for n in range(0, n_max + 1, 2)]
    psi = _ising_prep(params, t_prep_J, np.concatenate([b.masks for b in bases]))
    comps = np.split(psi, np.cumsum([b.dim for b in bases])[:-1])
    for comp in comps:
        comp.flags.writeable = False
    return tuple(comps)


@lru_cache(maxsize=8)
def _cached_sector(params, n):
    """The shared ``sector_hamiltonian``, with its eigensystem or its
    Chebyshev interval cached on it.

    A cached eigensystem (two reflection blocks of about dim/2, their
    eigenvectors 8 bytes per entry) holds about 4 dim^2 bytes.
    ``propagate`` diagonalizes only where the series would cost more
    (``evolve.takes_series``): at every preset's window a sector below dim 800
    (2.4 MB at L=40, n=2), over a long window a larger one, such as dim
    1225 (6 MB) over t = 2000, up to ``SECTOR_MAX_BYTES``.
    """
    return sector_hamiltonian(params, n)


def _pair_lowering_indices(hi, lo, pair_col):
    """Index map for sm_j sm_{j+1} from sector basis hi (n) to lo (n-2).

    pair_col is the 0-based left site. Returns (rows, mates): hi rows that
    hold both sites, and the lo rows of their other sites (a bijection onto
    its image).
    """
    rows = np.flatnonzero(hi.bits[:, pair_col] & hi.bits[:, pair_col + 1])
    occ = hi.occupations[rows]
    rest = occ[(occ != pair_col) & (occ != pair_col + 1)]
    return rows, lo.index_of(rest.reshape(len(rows), lo.n))


@lru_cache(maxsize=4)
def _dense_eigensystem(params, n):
    """(ascending eigenvalues, eigenvectors) of one dense ``eigh`` of sector n,
    read-only."""
    out = np.linalg.eigh(_cached_sector(params, n).dense())
    for arr in out:
        arr.flags.writeable = False
    return tuple(out)


@lru_cache(maxsize=48)
def _pair_lowering_block(params, n, pair_col):
    """sm_j sm_{j+1} from sector n to n-2, in the energy eigenbases.

    The eigenbases are the ascending eigenvectors of one dense ``eigh``
    per sector, shared by every pair and independent of the reflection
    blocks that ``propagate`` runs on. Nothing in the package calls it:
    ``spectroscopy_two`` contracts in the site basis. It stays as the
    eigenbasis reference the tests compare that contraction against.
    """
    hi, lo = _cached_sector(params, n), _cached_sector(params, n - 2)
    rows, mates = _pair_lowering_indices(hi.basis, lo.basis, pair_col)
    lo_vecs = _dense_eigensystem(params, n - 2)[1]
    return lo_vecs[mates].T @ _dense_eigensystem(params, n)[1][rows]


def spectroscopy_two(params, k, t_max_J=SPECTRO_TWO_TMAX, sites=(8, 13), n_max=4,
                     scan=None):
    """Two-magnon excitation energy from the pair coherence <sm_j sm_{j+1}>.

    The state prepared over ``T_PREP_J`` is split into magnon sectors up to
    n_max (neglected weight recorded), each sector evolved exactly by
    ``propagate`` on only the rows the coherence reads, and the coherence
    summed over the sector ladder in the site basis. The complex signal is
    averaged over pairs j in sites[0]..sites[1] and Fourier-transformed;
    the signed peak estimates eps2(k) - eps0 and the contrast the
    bound-state amplitude.

    scan, when given, is the momentum grid that k belongs to. The first
    call of a scan evolves all of its momenta in one pass per sector and
    keeps only their pair signals (``_scan_signals``), so the other
    momenta of the scan read theirs from that pass.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError(f"n_max must be an even magnon number of at least 2, got {n_max}")
    j_lo, j_hi = sites
    if not 1 <= j_lo <= j_hi < params.L:
        raise ValueError(
            f"pair window {j_lo}..{j_hi} leaves the chain of length {params.L}"
        )
    _check_full_space(params.L)  # the preparation's guard, before any sector is built
    setup = (t_max_J, (j_lo, j_hi), n_max)
    if scan is None:
        signal, neglected = _pair_signals(params, (float(k),), *setup)
        signal = signal[0]
    else:
        momenta = tuple(float(q) for q in np.ravel(scan))
        if float(k) not in momenta:
            raise ValueError(f"k={k} is not a momentum of the scan")
        signals, neglected = _scan_signals(params, momenta, *setup)
        signal = signals[momenta.index(float(k))].copy()
    times = np.linspace(0.0, t_max_J, N_SAMPLES, endpoint=False)
    freqs, mag, f_peak, contrast = spectral_peak(times / params.J, signal, two_sided=True)
    return SpectroscopySignal(
        times=times, values=signal, freqs=freqs, magnitude=mag,
        frequency=f_peak, resolution=2 * np.pi * params.J / t_max_J,
        contrast=contrast, neglected_weight=neglected,
    )


def _pair_signals(params, momenta, t_max_J, sites, n_max):
    """(signals, neglected weight) of ``spectroscopy_two``: the pair coherence
    of every momentum as a (len(momenta), n_pairs, N_SAMPLES) array.

    Each sector's imprinted states form one (dim, len(momenta)) block, which
    ``propagate`` evolves in one pass on the rows the readout reads.
    """
    t_phys = np.linspace(0.0, t_max_J, N_SAMPLES, endpoint=False) / params.J
    sectors = [_cached_sector(params, n) for n in range(0, n_max + 1, 2)]
    with _blas_threads(0):
        comps = _ising_sectors(params, T_PREP_J, n_max)
        neglected = 1.0 - sum(float(np.sum(np.abs(c) ** 2)) for c in comps)
        phases = imprint_phases(np.array(momenta), params.L)
        pairs = range(sites[0] - 1, sites[1])  # 1-based left sites -> 0-based
        # (rows, mates) of sm_p sm_{p+1} per pair, for each step down the ladder
        lowering = [[_pair_lowering_indices(hi.basis, lo.basis, p) for p in pairs]
                    for lo, hi in zip(sectors, sectors[1:])]
        # the rows each sector is read at: mates as the lower end of a step,
        # rows as the upper end
        is_read = [np.zeros(H.dim, dtype=bool) for H in sectors]
        for i, step in enumerate(lowering):
            for rows, mates in step:
                is_read[i][mates] = is_read[i + 1][rows] = True
        # (sorted read rows, (n_times, n_read, n_momenta) trajectory) per sector
        ladder = []
        for H, comp, mask in zip(sectors, comps, is_read):
            read = np.flatnonzero(mask)
            psi0 = _imprint(H.basis.bits, comp[:, None], phases)
            ladder.append((read, propagate(H, psi0, t_phys, rows=read)))

        signal = np.zeros((len(momenta), len(pairs), N_SAMPLES), dtype=complex)
        for (read_lo, psi_lo), (read_hi, psi_hi), step in zip(ladder, ladder[1:], lowering):
            for col, (rows, mates) in enumerate(step):
                signal[:, col] += np.einsum("tam,tam->mt",
                                            psi_lo[:, np.searchsorted(read_lo, mates)].conj(),
                                            psi_hi[:, np.searchsorted(read_hi, rows)])
    return signal, neglected


@lru_cache(maxsize=1)
def _scan_signals(params, momenta, *setup):
    """``_pair_signals`` of the one scan last asked for, read-only: at L=18
    nine momenta keep 9 x 6 x 64 complex values (55 KB), no trajectory."""
    signals, neglected = _pair_signals(params, momenta, *setup)
    signals.flags.writeable = False
    return signals, neglected


# ------------------------------------------------------------- quenches


def adjacent_pairs(bits):
    """(M, L-1) occupations of the pair (j, j+1) from (M, L) 0/1 rows."""
    return bits[:, :-1] & bits[:, 1:]


def quench_projectors(psi0, params, times_J):
    """Site and adjacent-pair projector maps under exact sector evolution."""
    if not (isinstance(psi0, StateVector) and psi0.basis[0] == "sector"):
        raise ValueError("psi0 must be a sector StateVector")
    H = _cached_sector(params, psi0.basis[2])
    times_J = np.asarray(times_J, dtype=float)
    prob = np.abs(propagate(H, psi0, times_J / params.J)) ** 2
    bits = H.basis.bits
    L = params.L
    return (
        SpacetimeMap(times=times_J, labels=np.arange(1, L + 1),
                     values=prob @ bits, name="site"),
        SpacetimeMap(times=times_J, labels=np.arange(1, L),
                     values=prob @ adjacent_pairs(bits), name="pair"),
    )


def bs_participation(pair_profile, L):
    """(sum_j <P_j,j+1> - 2/L) / (1 - 2/L): 1 = adjacent, 0 = random.

    Sums over the last axis, so a stack of pair profiles gives one value
    per profile. Undefined for L < 3: at L = 2 every two-magnon
    configuration is adjacent, so the random baseline 2/L is 1.
    """
    if L < 3:
        raise ValueError(f"participation needs L >= 3, got L={L}")
    total = np.sum(pair_profile, axis=-1)
    value = (total - 2.0 / L) / (1.0 - 2.0 / L)
    return float(value) if np.ndim(value) == 0 else value


def max_separation(L):
    """The largest separation ``center_pair_state`` places on L sites: its
    left magnon sits at site L // 2, so the right one reaches site L."""
    return L - L // 2


def center_pair_state(params, separation=1):
    """Two flips centered in the chain, separation sites apart (from 1 to
    ``max_separation(params.L)``)."""
    if separation < 0:  # 0 names one site twice, which the site check reports
        raise ValueError(f"separation must be at least 1, got {separation}")
    left = params.L - max_separation(params.L)
    return sector_state_from_sites(params, (left, left + separation))


def participation_crossover(params, deltas, tJ_eval=2.0, compare=None):
    """Adjacent-pair participation vs Delta at a fixed evaluation time.

    compare: optional (L, tJ) pair for a larger-system late-time curve
    approximating the asymptotic crossover.
    """
    deltas = np.asarray(deltas, dtype=float)

    def curve(L, tJ):
        out = np.empty(len(deltas))
        for i, d in enumerate(deltas):
            p = ModelParams(L=L, alpha=params.alpha, delta=float(d), J=params.J,
                            boundary=params.boundary)
            psi0 = center_pair_state(p)
            _, pupp = quench_projectors(psi0, p, [tJ])
            out[i] = bs_participation(pupp.values[0], L)
        return out

    main = curve(params.L, tJ_eval)
    if compare is None:
        return CrossoverCurve(deltas=deltas, participation=main)
    cl, ct = compare
    return CrossoverCurve(
        deltas=deltas, participation=main,
        compare_participation=curve(int(cl), float(ct)),
        compare_label=f"L={cl}, tJ={ct:g}",
    )


def front_velocity(map_, level=0.5):
    """Spreading velocity from interpolated threshold crossings.

    For each time the outermost position (rightward from the spatial
    maximum) where the signal crosses level * max is found by linear
    interpolation. Times with no crossing, a front within
    ``FRONT_EDGE_MARGIN`` sites of the boundary, or no progress beyond
    the initial front are excluded; the survivors are fit by least
    squares. Raises ValueError unless 0 < level < 1.
    """
    if not 0 < level < 1:  # also rejects NaN
        raise ValueError(f"front level must lie in (0, 1), got {level}")
    times, vals = map_.times, map_.values
    labels = np.asarray(map_.labels, dtype=float)
    pos, used = [], []
    n_excluded = 0
    for it in range(len(times)):
        row = vals[it]
        thr = level * row.max()
        if thr <= 0:
            n_excluded += 1
            continue
        above = np.flatnonzero(row >= thr)
        s = above[-1]  # rightmost site above threshold
        if s == len(row) - 1:
            n_excluded += 1
            continue
        frac = (row[s] - thr) / (row[s] - row[s + 1])
        x = labels[s] + frac * (labels[s + 1] - labels[s])
        if x > labels[-1] - FRONT_EDGE_MARGIN:
            n_excluded += 1
            continue
        pos.append(x)
        used.append(times[it])
    pos, used = np.array(pos), np.array(used)
    keep = np.ones(len(pos), dtype=bool)
    if len(pos):
        keep &= pos > pos[0] + 1e-9  # drop times before the front moves
        keep[0] = True
    n_excluded += int((~keep).sum())
    pos, used = pos[keep], used[keep]
    if len(pos) < 3:
        raise ValueError("too few usable front crossings to fit a velocity")
    slope, intercept = np.polyfit(used, pos, 1)
    resid = np.sqrt(np.mean((pos - (slope * used + intercept)) ** 2))
    return FrontFit(velocity=slope, residual=resid, times=used,
                    positions=pos, n_excluded=n_excluded)
