"""Projective-measurement emulation: snapshots, post-selection, jackknife.

Snapshots are z-basis configurations drawn by inverse-CDF over the state's
probability vector (sector states never touch the 2^L space). The RNG is
numpy's counter-based Philox bit generator seeded through SeedSequence;
numpy guarantees stream stability for a fixed bit generator, so snapshot
sets are reproducible across platforms. For parallel time points pass
seed=(root, time_index): the derived streams are independent and do not
depend on scheduling order.

Each estimator is stated once, as from_means(column means, L) of per-row
integer columns, and takes a SnapshotSet (each row counts once) or a
sector StateVector (basis rows weighted by |psi|^2). The jackknife forms
all N delete-one means from the column sums in closed form, O(N L) (Efron
& Stein, Ann. Stat. 9, 1981). Any plug-in function of configuration
frequencies fits, as means of one-hot columns. The statement lives in the
estimator's __dict__, so wrappers made with functools.wraps keep it.

Snapshot files are newline-delimited blocks: one JSON metadata line, then
one bitstring line (site 1 leftmost, '1' = up) per retained snapshot.
"""

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from .model import StateVector, enumerate_sector
from .probes import adjacent_pairs, bs_participation

DEFAULT_SNAPSHOTS = 1500  # typical experimental depth per time point


@dataclass(frozen=True)
class SnapshotSet:
    """Measured z-basis configurations plus provenance metadata."""

    bits: np.ndarray  # (n_retained, L) uint8, 1 = up
    L: int
    seed: object
    n_total: int  # drawn before any post-selection
    t_J: float | None = None
    delta: float | None = None
    alpha: float | None = None
    postselected: int | None = None  # magnon number kept, None = raw

    def __post_init__(self):
        if self.postselected is not None and len(self.bits):
            counts = self.bits.sum(axis=1)
            if not np.all(counts == self.postselected):
                raise ValueError("post-selected set contains wrong magnon numbers")

    @property
    def n_retained(self):
        return len(self.bits)

    @property
    def retention(self):
        return self.n_retained / self.n_total if self.n_total else 0.0

    @property
    def empty(self):
        return self.n_retained == 0

    def metadata(self):
        return {
            "L": self.L,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "n_total": self.n_total,
            "n_retained": self.n_retained,
            "t_J": self.t_J,
            "delta": self.delta,
            "alpha": self.alpha,
            "postselected": self.postselected,
        }


def _generator(seed):
    """Philox stream; seed is an int or a (root, stream_index) tuple."""
    if isinstance(seed, tuple):
        root, idx = seed
        seq = np.random.SeedSequence(root, spawn_key=(idx,))
    else:
        seq = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seq))


def sample_snapshots(psi, n_samples, seed, params=None, t_J=None):
    """Draw n_samples Born-rule configurations from psi.

    Inverse-CDF sampling over the probability vector; for sector states
    the configurations are rows of the sector's bits table, for full
    states the basis index is the bit pattern itself.
    """
    if not isinstance(psi, StateVector):
        raise ValueError("psi must be a StateVector")
    prob = np.abs(psi.data) ** 2
    total = prob.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (sum p = {total:.6g})")
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    rng = _generator(seed)
    idx = np.searchsorted(cdf, rng.random(n_samples), side="right")

    L = psi.L
    if psi.basis[0] == "sector":
        bits = enumerate_sector(L, psi.basis[2]).bits[idx]
    else:
        bits = ((idx[:, None] >> np.arange(L)) & 1).astype(np.uint8)
    return SnapshotSet(
        bits=bits, L=L, seed=seed, n_total=n_samples, t_J=t_J,
        delta=getattr(params, "delta", None), alpha=getattr(params, "alpha", None),
    )


def postselect(snapshots, n):
    """Keep snapshots with exactly n up-spins; retention is recorded.

    An empty result is returned (not raised); its `empty` flag is set and
    downstream estimators refuse it.
    """
    keep = snapshots.bits.sum(axis=1) == n
    return replace(snapshots, bits=snapshots.bits[keep], postselected=n)


# ------------------------------------------------------------- estimators


def _require_counts(snapshots):
    if snapshots.empty:
        raise ValueError("no snapshots retained; cannot estimate")


def _rows(source):
    """(bits, weights): snapshot rows with weights None (a mean is an integer
    column sum / N), or a sector state's basis rows with weights |psi|^2."""
    if isinstance(source, SnapshotSet):
        _require_counts(source)
        return source.bits, None
    if not (isinstance(source, StateVector) and source.basis[0] == "sector"):
        raise ValueError("expected a SnapshotSet or a sector StateVector")
    return enumerate_sector(source.L, source.basis[2]).bits, np.abs(source.data) ** 2


def _from_column_means(columns, from_means):
    """Turn the decorated stub into the estimator from_means(column means, L).

    columns maps (M, L) 0/1 rows to (M, m) integer columns; from_means
    broadcasts over leading axes of the means. jackknife reads the pair
    from the estimator's `column_means` attribute.
    """
    def declare(stub):
        @functools.wraps(stub)
        def estimator(source):
            bits, weights = _rows(source)
            x = columns(bits)
            means = x.sum(axis=0) / len(x) if weights is None else weights @ x
            return from_means(means, bits.shape[1])
        estimator.column_means = (columns, from_means)
        return estimator
    return declare


@_from_column_means(lambda bits: bits, lambda means, L: means)
def estimate_pup(source):
    """Per-site up fraction <P_j>."""


@_from_column_means(adjacent_pairs, lambda means, L: means)
def estimate_pupp(source):
    """Adjacent-pair fraction <P_j P_{j+1}>, labels = left site."""


@_from_column_means(adjacent_pairs, bs_participation)
def estimate_participation(source):
    """Renormalized adjacent-pair participation from the pair fractions."""


def jackknife(estimator, snapshots):
    """Delete-one jackknife (bias-corrected mean, standard error).

    estimator is one made by `_from_column_means`, or a functools.wraps
    wrapper of one. With S the exact integer column sums, all N delete-one
    means are (S - x_i) / (N - 1), one (N, m) array. For a plain sample
    mean the standard error is std/sqrt(N) exactly.
    """
    if not hasattr(estimator, "column_means"):
        raise TypeError(f"{estimator!r} declares no column means")
    columns, from_means = estimator.column_means
    _require_counts(snapshots)
    N = snapshots.n_retained
    if N < 2:
        raise ValueError(f"jackknife needs at least 2 snapshots, got {N}")
    x = columns(snapshots.bits)
    sums = x.sum(axis=0)
    full = np.asarray(from_means(sums / N, snapshots.L), dtype=float)
    parts = np.asarray(from_means((sums - x) / (N - 1), snapshots.L), dtype=float)
    mean_parts = parts.mean(axis=0)
    corrected = N * full - (N - 1) * mean_parts
    err = np.sqrt((N - 1) / N * np.sum((parts - mean_parts) ** 2, axis=0))
    if full.shape == ():
        return float(corrected), float(err)
    return corrected, err


# ------------------------------------------------------------- file format


def _text_rows(bits):
    """ASCII bitstring lines of a (N, L) 0/1 array, each ending in a newline."""
    rows = np.full((len(bits), bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    rows[:, :-1] = np.where(bits, ord("1"), ord("0"))
    return rows.tobytes()


def save_snapshots(path, snapshot_sets):
    """Write blocks of one JSON metadata line plus bitstring lines."""
    if isinstance(snapshot_sets, SnapshotSet):
        snapshot_sets = [snapshot_sets]
    with open(path, "w") as fh:
        for s in snapshot_sets:
            fh.write(json.dumps(s.metadata()) + "\n")
            fh.write(_text_rows(s.bits).decode("ascii"))


def load_snapshots(path):
    """Read back every block written by save_snapshots."""
    sets = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    i = 0
    while i < len(lines):
        meta = json.loads(lines[i])
        i += 1
        n = meta["n_retained"]
        rows = lines[i: i + n]
        i += n
        chars = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8)
        if (len(rows) != n or any(len(r) != meta["L"] for r in rows)
                or not np.all((chars == ord("0")) | (chars == ord("1")))):
            raise ValueError(f"corrupt snapshot block in {path}")
        bits = (chars == ord("1")).astype(np.uint8).reshape(n, meta["L"])
        seed = meta["seed"]
        sets.append(
            SnapshotSet(
                bits=bits, L=meta["L"],
                seed=tuple(seed) if isinstance(seed, list) else seed,
                n_total=meta["n_total"], t_J=meta["t_J"], delta=meta["delta"],
                alpha=meta["alpha"], postselected=meta["postselected"],
            )
        )
    return sets
