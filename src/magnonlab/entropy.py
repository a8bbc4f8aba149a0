"""Sector-resolved entanglement entropies and their snapshot proxies.

Magnon-number conservation makes every reduced density matrix block
diagonal over the local magnon count n. Exact evaluations split the
subsystem entropy into a number part -sum p(n) log p(n) and a
configurational part sum p(n) S(rho^(n)), which add up to the full von
Neumann entropy of the subsystem (an exact identity, tested to 1e-12).

A sector StateVector may hold one state or a series of them, one per row
of its data (a time grid from ``propagate``). A series is partial-traced
in stacks of rows: each region's local magnon count and the colex ranks
of its region and complement configurations are read off the sector
basis once, every row of a stack is gathered into its M blocks at once,
and rho = M M^H and its spectrum are one stacked ``matmul`` and one
stacked ``eigvalsh`` per local count. A stack holds as many rows as their
M and rho blocks fit in ``TRACE_STACK_BYTES``, and at least one; one
state is the one-row case of the same path.

The snapshot-based proxy replaces the configurational entropy by a
covariance-style surrogate on z-basis configuration frequencies,

    S~_C;R = sum_n p(n) sum_{a, b} [ p(a, b) - p(a) p(b) ]

with a running over the n-magnon configurations of region R and b over
the matching configurations of its complement. Summed over the full
configuration sets the bracket telescopes to p(n) - p(n)^2 (empirical
frequencies included, since the marginals come from the same counts), so

    S~_C;R = sum_n p(n)^2 (1 - p(n)),

a function of the local number distribution p(n) alone: it carries no
information about configurations within a sector. It is evaluated in
that closed form. A sector state and a snapshot set enter through the
same rows as the `sampling` estimators: p(n) is one bincount of the local
magnon count, weighted by |psi|^2 or divided by the snapshot count N.
The mutual-information combination is emitted in two variants, with and
without the number-entropy parts, since only their sum is fixed by the
measured data. Natural logarithms everywhere.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .model import StateVector, enumerate_sector
from .sampling import _rows

DEFAULT_REGION_A = (7, 8, 9)  # centered 3-site segments for L = 20
DEFAULT_REGION_B = (12, 13, 14)
MIN_SECTOR_COUNTS = 10  # below this a p(n) estimate is flagged
TRACE_STACK_BYTES = 1 << 25  # M and rho blocks of the rows partial-traced at once


def _check_region(region, L):
    sites = tuple(int(s) for s in region)
    if len(set(sites)) != len(sites):
        raise ValueError(f"region {region} repeats sites")
    if not sites or min(sites) < 1 or max(sites) > L:
        raise ValueError(f"region {region} outside chain 1..{L}")
    return sites


# ------------------------------------------------------------ exact side


@dataclass
class SectorResolvedDensity:
    """Reduced density matrix of a region, block per local magnon count.

    probs[n] is the weight of the n-magnon block and blocks[n] the
    normalized block (None where probs[n] = 0). Block rows follow
    enumerate_sector(len(region), n) order; spectra[n] holds the
    eigenvalues of blocks[n] (None where blocks[n] is), for the sign
    check and ``entropies``.
    """

    region: tuple
    probs: np.ndarray
    blocks: list
    spectra: list = field(repr=False)

    def __post_init__(self):
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"block weights sum to {self.probs.sum():.6g}")
        for n, (block, evals) in enumerate(zip(self.blocks, self.spectra)):
            if block is None:
                continue
            if abs(np.trace(block).real - 1.0) > 1e-9:
                raise ValueError(f"block n={n} is not normalized")
            if evals.min() < -1e-12:
                raise ValueError(f"block n={n} has negative eigenvalues")


def reduced_densities(psi, region):
    """Partial traces onto `region` (1-based sites), resolved by magnon count:
    one SectorResolvedDensity per row of psi.data, in row order.

    psi must be a sector StateVector of one state (dim,) or a series of
    them (n_rows, dim); the complement is traced out by grouping the sector
    basis over (region configuration, complement configuration) pairs, so
    the 2^L space is never built. Rows are traced a stack at a time, as
    many as their M and rho blocks fit in TRACE_STACK_BYTES (at least one).
    """
    if not (isinstance(psi, StateVector) and psi.basis[0] == "sector"):
        raise ValueError("psi must be a sector StateVector")
    L, N = psi.basis[1], psi.basis[2]
    sites = _check_region(region, L)
    basis = enumerate_sector(L, N)
    if psi.data.ndim not in (1, 2) or psi.data.shape[-1] != basis.dim:
        raise ValueError(f"state shape {psi.data.shape} is not (dim,) or (n_rows, dim) "
                         f"for dim {basis.dim}")
    data = psi.data.reshape(-1, basis.dim)

    # colex ranks, sum_i b_i C(i, b_0 + .. + b_i), of the region's bits in its
    # listed order and of the complement's; both ascend with the mask
    local = basis.bits[:, [s - 1 for s in sites]]
    a_ranks, c_ranks = ((b * basis.binomials[np.arange(b.shape[1]), b.cumsum(axis=1)]).sum(1)
                        for b in (local, np.delete(basis.bits, [s - 1 for s in sites], axis=1)))
    n_local = local.sum(axis=1)
    # per local count n: its rows, which pair every region configuration with
    # every complement one, and the shape of its M block
    groups = []
    for n in range(min(len(sites), N) + 1):
        rows = np.flatnonzero(n_local == n)
        if rows.size:
            groups.append((n, rows, (comb(len(sites), n), comb(L - len(sites), N - n))))
    row_bytes = 16 * sum(a * (a + c) for _, _, (a, c) in groups)
    stack = max(1, TRACE_STACK_BYTES // row_bytes)

    for lo in range(0, len(data), stack):
        chunk = data[lo:lo + stack]
        probs = np.zeros((len(chunk), N + 1))
        blocks = [[None] * (N + 1) for _ in chunk]
        spectra = [[None] * (N + 1) for _ in chunk]
        for n, rows, shape in groups:
            M = np.zeros((len(chunk),) + shape, dtype=complex)
            M[:, a_ranks[rows], c_ranks[rows]] = chunk[:, rows]
            rho = M @ M.conj().transpose(0, 2, 1)
            p = np.trace(rho, axis1=1, axis2=2).real
            held = np.flatnonzero(p > 1e-15)
            if not held.size:
                continue
            normed = rho[held] / p[held, None, None]
            for j, block, evals in zip(held, normed, np.linalg.eigvalsh(normed)):
                probs[j, n], blocks[j][n], spectra[j][n] = p[j], block, evals
        for j in range(len(chunk)):
            yield SectorResolvedDensity(region=sites, probs=probs[j], blocks=blocks[j],
                                        spectra=spectra[j])


def reduced_density(psi, region):
    """Partial trace of one sector state onto `region`: the one-row case of
    ``reduced_densities``."""
    (srd,) = reduced_densities(psi, region)
    return srd


def _vn_entropy(evals):
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


@dataclass
class EntropyBreakdown:
    total: float
    number: float
    config: float


def entropies(srd):
    """Number, configurational, and total entropy of a resolved density."""
    p = srd.probs[srd.probs > 1e-15]
    s_num = float(-np.sum(p * np.log(p)))
    s_conf = sum(
        srd.probs[n] * _vn_entropy(evals)
        for n, evals in enumerate(srd.spectra)
        if evals is not None
    )
    return EntropyBreakdown(total=s_num + s_conf, number=s_num, config=s_conf)


def subsystem_entropy(psi, region):
    """Von Neumann entropy of `region`: a float for one state, an array with
    one value per row for a series of states."""
    totals = np.array([entropies(srd).total for srd in reduced_densities(psi, region)])
    return float(totals[0]) if psi.data.ndim == 1 else totals


def _region_pair(region_a, region_b, L):
    """Validated (A, B, A u B) site tuples; A and B must not overlap."""
    a = _check_region(region_a, L)
    b = _check_region(region_b, L)
    if set(a) & set(b):
        raise ValueError(f"regions overlap: {sorted(set(a) & set(b))}")
    return a, b, tuple(sorted(a + b))


def region_entropies(psi, region_a, region_b):
    """(S_A, S_B, S_{A u B}) from the exact pure state, or from each row of a
    series of them, one evaluation each."""
    regions = _region_pair(region_a, region_b, psi.basis[1])
    return tuple(subsystem_entropy(psi, r) for r in regions)


def mutual_information(psi, region_a=DEFAULT_REGION_A, region_b=DEFAULT_REGION_B):
    """I = S_A + S_B - S_{A u B} from the exact pure state."""
    s_a, s_b, s_ab = region_entropies(psi, region_a, region_b)
    return s_a + s_b - s_ab


# ------------------------------------------------------------ proxy side


@dataclass
class ProxyResult:
    """Configurational mutual-information proxy and its pieces.

    value combines number and surrogate parts per region,
    I_c = sum_{R in A,B} (S_N;R + S~_C;R) - (S_N;AuB + S~_C;AuB);
    config_only drops the S_N terms. flagged marks sectors whose
    occupation probability rests on fewer than MIN_SECTOR_COUNTS
    snapshots (never set for exact-probability input).
    """

    value: float
    config_only: float
    number_part: dict
    surrogate_part: dict
    flagged: bool


def _proxy(bits, weights, regions):
    """ProxyResult over the (A, B, A u B) regions of weighted rows.

    weights None marks snapshot rows: p(n) is each sector's count / N, and
    a sector held by fewer than MIN_SECTOR_COUNTS snapshots sets the flag.
    """
    number_part, surrogate_part = {}, {}
    flagged = False
    for name, sites in zip(("A", "B", "AB"), regions):
        counts = bits[:, [s - 1 for s in sites]].sum(axis=1, dtype=np.intp)
        p = np.bincount(counts, weights=weights)
        p = p[p > 0]
        if weights is None:
            flagged |= bool(np.any(p < MIN_SECTOR_COUNTS))
            p = p / len(bits)
        number_part[name] = float(-np.sum(p * np.log(p)))
        surrogate_part[name] = float(np.sum(p * p * (1.0 - p)))
    with_n = {r: number_part[r] + surrogate_part[r] for r in number_part}
    return ProxyResult(
        value=with_n["A"] + with_n["B"] - with_n["AB"],
        config_only=surrogate_part["A"] + surrogate_part["B"] - surrogate_part["AB"],
        number_part=number_part,
        surrogate_part=surrogate_part,
        flagged=flagged,
    )


def config_mutual_proxy(source, region_a=DEFAULT_REGION_A,
                        region_b=DEFAULT_REGION_B):
    """I_c of a SnapshotSet (plug-in) or a sector StateVector (Born weights)."""
    bits, weights = _rows(source)
    return _proxy(bits, weights, _region_pair(region_a, region_b, bits.shape[1]))


def config_mutual_proxy_exact(psi, region_a=DEFAULT_REGION_A,
                              region_b=DEFAULT_REGION_B):
    """Infinite-sample I_c from exact Born probabilities (theory curves)."""
    return config_mutual_proxy(psi, region_a, region_b)
