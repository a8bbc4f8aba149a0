"""Sector-resolved entanglement entropies and their snapshot proxies.

Magnon-number conservation makes every reduced density matrix block
diagonal over the local magnon count n. Exact evaluations split the
subsystem entropy into a number part -sum p(n) log p(n) and a
configurational part sum p(n) S(rho^(n)), which add up to the full von
Neumann entropy of the subsystem (an exact identity, tested to 1e-12).

The snapshot-based proxy replaces the configurational entropy by a
covariance-style surrogate evaluated on z-basis configuration
frequencies:

    S~_C;R = sum_n p(n) sum_{a, b} [ p(a, b) - p(a) p(b) ]

with a running over the n-magnon configurations of region R and b over
the matching configurations of its complement. Summed over the full
configuration sets the bracket telescopes to p(n) - p(n)^2 (empirical
frequencies included, since the marginals come from the same counts);
the implementation still evaluates the terms explicitly so that partial
configuration sets and exact-probability inputs are handled uniformly.
The mutual-information combination is emitted in two variants, with and
without the number-entropy parts, since only their sum is fixed by the
measured data. Natural logarithms everywhere.
"""

from dataclasses import dataclass

import numpy as np

from .model import StateVector, enumerate_sector

DEFAULT_REGION_A = (7, 8, 9)  # centered 3-site segments for L = 20
DEFAULT_REGION_B = (12, 13, 14)
MIN_SECTOR_COUNTS = 10  # below this a p(n) estimate is flagged


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
    enumerate_sector(len(region), n) order.
    """

    region: tuple
    probs: np.ndarray
    blocks: list

    def __post_init__(self):
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"block weights sum to {self.probs.sum():.6g}")
        for n, block in enumerate(self.blocks):
            if block is None:
                continue
            if abs(np.trace(block).real - 1.0) > 1e-9:
                raise ValueError(f"block n={n} is not normalized")
            if np.linalg.eigvalsh(block).min() < -1e-12:
                raise ValueError(f"block n={n} has negative eigenvalues")


def reduced_density(psi, region):
    """Partial trace onto `region` (1-based sites), resolved by magnon count.

    psi must be a sector StateVector; the complement is traced out by
    grouping the sector basis over (region configuration, complement
    configuration) pairs, so the 2^L space is never built.
    """
    if not (isinstance(psi, StateVector) and psi.basis[0] == "sector"):
        raise ValueError("psi must be a sector StateVector")
    L, N = psi.basis[1], psi.basis[2]
    sites = _check_region(region, L)
    basis = enumerate_sector(L, N)

    # bit i of a region key is site sites[i]; the complement key is the
    # mask with the region's bits cleared
    position = np.full(L, -1)
    position[[s - 1 for s in sites]] = np.arange(len(sites))
    pos = position[basis.occupations]
    a_keys = np.where(pos >= 0, 1 << np.maximum(pos, 0), 0).sum(axis=1)
    n_local = (pos >= 0).sum(axis=1)
    c_keys = basis.masks & ~sum(1 << (s - 1) for s in sites)

    probs = np.zeros(N + 1)
    blocks = [None] * (N + 1)
    for n in range(min(len(sites), N) + 1):
        rows = np.flatnonzero(n_local == n)
        if not rows.size:
            continue
        sub = enumerate_sector(len(sites), n)
        # complement columns in ascending key order, which is the order in
        # which the ascending sector masks first reach each key
        c_values, c_col = np.unique(c_keys[rows], return_inverse=True)
        M = np.zeros((sub.dim, len(c_values)), dtype=complex)
        M[np.searchsorted(sub.masks, a_keys[rows]), c_col] = psi.data[rows]
        rho = M @ M.conj().T
        p = float(np.trace(rho).real)
        if p > 1e-15:
            probs[n] = p
            blocks[n] = rho / p
    return SectorResolvedDensity(region=sites, probs=probs, blocks=blocks)


def _vn_entropy(block):
    evals = np.linalg.eigvalsh(block)
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
        srd.probs[n] * _vn_entropy(b)
        for n, b in enumerate(srd.blocks)
        if b is not None
    )
    return EntropyBreakdown(total=s_num + s_conf, number=s_num, config=s_conf)


def subsystem_entropy(psi, region):
    return entropies(reduced_density(psi, region)).total


def _region_pair(region_a, region_b, L):
    """Validated (A, B, A u B) site tuples; A and B must not overlap."""
    a = _check_region(region_a, L)
    b = _check_region(region_b, L)
    if set(a) & set(b):
        raise ValueError(f"regions overlap: {sorted(set(a) & set(b))}")
    return a, b, tuple(sorted(a + b))


def region_entropies(psi, region_a, region_b):
    """(S_A, S_B, S_{A u B}) from the exact pure state, one evaluation each."""
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


def _joint_config_probs(bits_or_state, region_cols, L):
    """{n: (joint, marg_a, marg_b)} of unconditional probabilities.

    Accepts either a (N, L) snapshot bit array or a sector StateVector
    (exact Born probabilities). Keys are packed region / complement
    configurations; probabilities are unconditional, so each sector's
    marginals sum to p(n).
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


def _surrogate_and_number(joint_by_n):
    """(S_N, S~_C) from sector-grouped configuration probabilities."""
    s_num, s_conf = 0.0, 0.0
    for _, (joint, ma, mb) in sorted(joint_by_n.items()):
        p_n = sum(ma.values())
        if p_n <= 0:
            continue
        s_num -= p_n * np.log(p_n)
        term = sum(joint.values())
        term -= sum(ma.values()) * sum(mb.values())
        s_conf += p_n * term
    return s_num, s_conf


def config_mutual_proxy(snapshots, region_a=DEFAULT_REGION_A,
                        region_b=DEFAULT_REGION_B):
    """Snapshot plug-in estimate of the mutual-information proxy I_c."""
    if snapshots.empty:
        raise ValueError("no snapshots retained; cannot estimate")
    regions = _region_pair(region_a, region_b, snapshots.L)
    flagged = False
    number_part, surrogate_part = {}, {}
    for name, sites in zip(("A", "B", "AB"), regions):
        cols = [s - 1 for s in sites]
        grouped = _joint_config_probs(snapshots.bits, cols, snapshots.L)
        counts = {
            n: round(sum(ma.values()) * snapshots.n_retained)
            for n, (_, ma, _) in grouped.items()
        }
        flagged |= any(0 < c < MIN_SECTOR_COUNTS for c in counts.values())
        number_part[name], surrogate_part[name] = _surrogate_and_number(grouped)
    return _combine(number_part, surrogate_part, flagged)


def config_mutual_proxy_exact(psi, region_a=DEFAULT_REGION_A,
                              region_b=DEFAULT_REGION_B):
    """Infinite-sample I_c from exact Born probabilities (theory curves)."""
    regions = _region_pair(region_a, region_b, psi.basis[1])
    number_part, surrogate_part = {}, {}
    for name, sites in zip(("A", "B", "AB"), regions):
        cols = [s - 1 for s in sites]
        grouped = _joint_config_probs(psi, cols, psi.basis[1])
        number_part[name], surrogate_part[name] = _surrogate_and_number(grouped)
    return _combine(number_part, surrogate_part, False)


def _combine(number_part, surrogate_part, flagged):
    with_n = {r: number_part[r] + surrogate_part[r] for r in number_part}
    return ProxyResult(
        value=with_n["A"] + with_n["B"] - with_n["AB"],
        config_only=surrogate_part["A"] + surrogate_part["B"] - surrogate_part["AB"],
        number_part=number_part,
        surrogate_part=surrogate_part,
        flagged=flagged,
    )
