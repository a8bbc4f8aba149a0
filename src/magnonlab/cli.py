"""Command-line driver: flat configs, experiment dispatch, CSV/JSON artifacts.

Every run resolves its settings in three layers, later wins: built-in
defaults < config file (--config, flat ``key = value`` lines) < explicit
command-line flags (under ``reproduce``, a preset's values). Unknown keys
are rejected before any computation. Times are dimensionless tJ; any time
key also accepts a ``<key>_s`` twin in seconds, converted once at ingest
using the ``coupling`` key (J in rad/s). Site labels are 1-based everywhere.

Each run writes CSV files (with ``#``-prefixed metadata header lines) plus
``manifest.json`` carrying the resolved config, a sha256 per artifact, a
content hash over config+artifacts, and the wall time. Outputs are
byte-identical for identical (config, seed, version); the wall time lives
only outside the hashed payload. All randomness flows from the single
--seed root through numbered sub-streams.

A run publishes all of its files or none: once its artifacts and manifest
are written to a staging directory, they move into the output directory,
the earlier manifest removed first and the new one moved last. A failed or
interrupted run leaves the output directory as it was.
"""

import argparse
import functools
import hashlib
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    DEFAULT_REGION_A,
    DEFAULT_REGION_B,
    _region_pair,
    config_mutual_proxy_exact,
    region_entropies,
)
from .evolve import check_pulse_length, exact_evolve, floquet_sweep, propagate
from .model import ModelParams, StateVector, enumerate_sector
from .probes import (
    _cached_sector,
    bs_participation,
    center_pair_state,
    front_velocity,
    max_separation,
    participation_crossover,
    quench_projectors,
    spectroscopy_one,
    spectroscopy_two,
    standing_wave_momenta,
)
from .sampling import (
    DEFAULT_SNAPSHOTS,
    estimate_participation,
    estimate_pup,
    estimate_pupp,
    jackknife,
    postselect,
    sample_snapshots,
    save_snapshots,
)
from .spectral import (
    ONE_THREAD_BELOW_DIM,
    _blas_threads,
    dispersion_one,
    dispersion_two,
    group_velocity_one,
    phase_diagram,
    quantized_momenta,
)


class ConfigError(Exception):
    """Schema violation: unknown key, bad value, missing unit anchor."""


# ------------------------------------------------------------ config schema


@dataclass(frozen=True)
class KeySpec:
    kind: str  # int | float | str | sites
    default: object
    help: str
    time: bool = False  # tJ value with an auto-generated *_s twin
    window: bool = False  # a time window: finite and positive


MODEL_KEYS = {
    "length": KeySpec("int", 20, "number of spins"),
    "alpha": KeySpec("float", 1.4, "coupling power-law exponent"),
    "delta": KeySpec("float", 0.0, "anisotropy of the zz term"),
    "boundary": KeySpec("str", "open", "open | ring"),
    "coupling": KeySpec("float", 0.0, "J in rad/s; enables *_s second inputs"),
}

SCHEMAS = {
    "dispersion1": {
        **MODEL_KEYS,
        "measure": KeySpec("int", 0, "1: add FFT beat notes from plane-wave spectroscopy"),
        "t_max": KeySpec("float", 16.0, "spectroscopy window", time=True,
                         window=True),
    },
    "dispersion2": {
        **MODEL_KEYS,
        "measure": KeySpec("int", 0, "1: add FFT peaks from pair spectroscopy"),
        "sites": KeySpec("sites", (8, 13), "readout window for pair spectroscopy"),
        "t_max": KeySpec("float", 8.0, "spectroscopy window", time=True,
                         window=True),
    },
    "phase-diagram": {
        "length": KeySpec("int", 300, "number of spins (ring)"),
        "alpha": MODEL_KEYS["alpha"],
        "delta_min": KeySpec("float", 0.0, "anisotropy grid start"),
        "delta_max": KeySpec("float", 4.0, "anisotropy grid end"),
        "n_delta": KeySpec("int", 17, "anisotropy grid points"),
        "n_k": KeySpec("int", 40, "momentum grid points (subsampled)"),
    },
    "quench": {
        **MODEL_KEYS,
        "separation": KeySpec("int", 1, "initial magnon separation in sites"),
        "t_max": KeySpec("float", 5.5, "evolution window", time=True,
                         window=True),
        "n_times": KeySpec("int", 40, "time grid points"),
        "front_level": KeySpec("float", 0.5, "threshold fraction for the front"),
    },
    "participation": {
        "length": MODEL_KEYS["length"],
        "alpha": MODEL_KEYS["alpha"],
        "boundary": MODEL_KEYS["boundary"],
        "coupling": MODEL_KEYS["coupling"],
        "t_eval": KeySpec("float", 2.0, "evaluation time", time=True),
        "delta_min": KeySpec("float", 0.0, "anisotropy grid start"),
        "delta_max": KeySpec("float", 4.0, "anisotropy grid end"),
        "n_delta": KeySpec("int", 17, "anisotropy grid points"),
        "compare_length": KeySpec("int", 0, "second system size (0: off)"),
        "compare_t": KeySpec("float", 4.0, "second-curve evaluation time", time=True),
    },
    "floquet-bench": {
        **MODEL_KEYS,
        "t_eff": KeySpec("float", 3.3, "target effective time", time=True,
                         window=True),
        "n_steps": KeySpec("int", 128, "pulse steps"),
        "det_max": KeySpec("float", 2.0, "detuning sweep half-width (units of J)"),
        "n_det": KeySpec("int", 21, "detuning grid points"),
    },
    "entropy": {
        **MODEL_KEYS,
        "separation": KeySpec("int", 1, "initial magnon separation in sites"),
        "t_max": KeySpec("float", 3.0, "evolution window", time=True,
                         window=True),
        "n_times": KeySpec("int", 13, "time grid points"),
        "region_a": KeySpec("sites", DEFAULT_REGION_A, "segment A sites"),
        "region_b": KeySpec("sites", DEFAULT_REGION_B, "segment B sites"),
    },
    "sample": {
        **MODEL_KEYS,
        "separation": KeySpec("int", 1, "initial magnon separation in sites"),
        "t": KeySpec("float", 2.0, "evolution time before measuring", time=True),
        "n_snapshots": KeySpec("int", DEFAULT_SNAPSHOTS, "snapshots to draw"),
        "postselect_n": KeySpec("int", 2, "retain this magnon number (-1: off)"),
    },
}

# experiments that need more than the two sites of the shortest chain, with why
MIN_LENGTH = {
    "dispersion2": (3, "at L = 2 the ring momentum pi has no pair state"),
    "phase-diagram": (3, "at L = 2 the ring momentum pi has no pair state"),
    "participation": (3, "at L = 2 every pair is adjacent, so the participation is undefined"),
    "quench": (3, "at L = 2 every pair is adjacent, so the participation is undefined"),
    "sample": (3, "at L = 2 every pair is adjacent, so the participation is undefined"),
}


def _with_time_twins(schema):
    out = dict(schema)
    for key, spec in schema.items():
        if spec.time:
            out[key + "_s"] = KeySpec("float", None, f"{key} in seconds (needs coupling)")
    return out


def _convert(key, spec, raw, source):
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            return float(raw)
        if spec.kind == "sites":
            if isinstance(raw, (tuple, list)):
                return tuple(int(v) for v in raw)
            return tuple(int(v) for v in str(raw).split(","))
        return str(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: key '{key}' expects {spec.kind}, got {raw!r}")


def read_config_file(path):
    """Flat ``key = value`` lines; ``#`` starts a comment; blank lines skipped."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {type(err).__name__}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def resolve_config(experiment, file_cfg, cli_cfg):
    """defaults < config file < explicit CLI flags; seconds converted last."""
    schema = _with_time_twins(SCHEMAS[experiment])
    vals = {k: s.default for k, s in schema.items()}
    for source, layer in (("config file", file_cfg), ("command line", cli_cfg)):
        for key, raw in layer.items():
            if key not in schema:
                raise ConfigError(f"unknown config key for {experiment}: '{key}'")
            if raw is not None:
                vals[key] = _convert(key, schema[key], raw, source)
    for key, spec in SCHEMAS[experiment].items():
        if not spec.time:
            continue
        seconds = vals.pop(key + "_s")
        if seconds is not None:  # unset by default, so that 0 s converts too
            coupling = vals.get("coupling", 0.0)
            if coupling <= 0:
                raise ConfigError(
                    f"'{key}_s' given in seconds but 'coupling' (rad/s) is not set"
                )
            vals[key] = seconds * coupling
        if spec.window and not 0 < vals[key] < np.inf:  # also rejects NaN
            raise ConfigError(f"'{key}' must be finite and positive, got {vals[key]!r}")
        if not np.isfinite(vals[key]):
            raise ConfigError(f"'{key}' must be finite, got {vals[key]!r}")
    shortest, why = MIN_LENGTH.get(experiment, (0, ""))
    if vals["length"] < shortest:
        raise ConfigError(f"{experiment} needs L >= {shortest}, got L={vals['length']}: {why}")
    return vals


def _model(cfg):
    return ModelParams(
        L=cfg["length"], alpha=cfg["alpha"], delta=cfg.get("delta", 0.0),
        J=1.0, boundary=cfg.get("boundary", "open"),
    )


def _center_pair(cfg, params):
    """``center_pair_state`` at cfg's separation, rejected if that puts the
    second magnon off the chain."""
    room = max_separation(params.L)
    if cfg["separation"] > room:
        raise ConfigError(f"'separation' must be at most {room} at L={params.L}, so that "
                          f"the second magnon stays on the chain; got {cfg['separation']}")
    return center_pair_state(params, cfg["separation"])


def _grid_count(cfg, key, minimum=1):
    """cfg[key], rejected unless it gives a grid of at least ``minimum`` points."""
    if cfg[key] < minimum:
        raise ConfigError(f"'{key}' must be at least {minimum}, got {cfg[key]}")
    return cfg[key]


def _delta_grid(cfg, minimum=1):
    """The anisotropy grid delta_min .. delta_max of n_delta points, rejected
    unless both ends are finite and n_delta is at least ``minimum``."""
    for key in ("delta_min", "delta_max"):
        if not np.isfinite(cfg[key]):
            raise ConfigError(f"'{key}' must be finite, got {cfg[key]!r}")
    return np.linspace(cfg["delta_min"], cfg["delta_max"],
                       _grid_count(cfg, "n_delta", minimum))


# --------------------------------------------------------------- artifacts


def _fmt(x):
    # shortest round-trip repr: byte-stable and exact under float()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, meta, names, columns):
    """Columns of equal length; metadata echoed as '# key = value' lines."""
    rows = list(zip(*columns)) if columns else []
    with open(path, "w") as fh:
        for key, val in meta:
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_manifest(outdir, experiment, cfg, seed, notes, elapsed):
    """outdir/manifest.json; every file already in outdir is an artifact."""
    payload = {
        "experiment": experiment,
        "config": _jsonable(cfg),
        "seed": seed,
        "artifacts": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in sorted(Path(outdir).iterdir())},
        "version": __version__,
    }
    payload["content_hash"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["notes"] = _jsonable(notes)
    payload["wall_time_s"] = round(elapsed, 3)
    (Path(outdir) / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _meta(cfg, extra=()):
    items = [(k, _fmt(v) if not isinstance(v, tuple) else ",".join(map(str, v)))
             for k, v in sorted(cfg.items())]
    return items + list(extra)


# -------------------------------------------------------------- experiments


def run_dispersion1(cfg, outdir, seed):
    params = _model(cfg)
    if cfg["measure"] and params.boundary != "open":
        raise ConfigError("measure = 1 needs boundary = open (standing waves)")
    # a ring writes its exact finite sums, an open chain the infinite-chain series
    if params.boundary == "ring":
        k, mode = quantized_momenta(params.L), "ring"
    else:
        k, mode = standing_wave_momenta(params.L), "infinite"
    energy = dispersion_one(k, params, mode=mode)
    velocity = group_velocity_one(k, params, mode=mode)
    names = ["index", "k", "energy", "velocity"]
    cols = [np.arange(1, len(k) + 1), k, energy, velocity]
    notes = {}
    if cfg["measure"]:
        signals = [spectroscopy_one(params, float(q), t_max_J=cfg["t_max"])
                   for q in k]
        measured = np.array([s.frequency for s in signals])
        analytic = np.abs(energy - energy[0])
        names += ["beat_measured", "beat_analytic", "resolution"]
        cols += [measured, analytic, np.array([s.resolution for s in signals])]
        notes["max_beat_error_bins"] = float(
            np.max(np.abs(measured - analytic) / signals[0].resolution)
        )
    write_csv(Path(outdir) / "dispersion1.csv", _meta(cfg), names, cols)
    return notes


def run_dispersion2(cfg, outdir, seed):
    chain = _model(cfg)  # open chain carries the measurement
    sites = cfg["sites"]
    if cfg["measure"] and (len(sites) != 2 or not 1 <= sites[0] <= sites[1] < chain.L):
        raise ConfigError(f"'sites' must be lo,hi with 1 <= lo <= hi < {chain.L}, "
                          f"got {','.join(map(str, sites))}")
    ring = replace(chain, boundary="ring")
    k = quantized_momenta(ring.L)
    curve = dispersion_two(k, ring)
    names = ["k", "energy", "l4", "bound"]
    cols = [curve.k, curve.energy, curve.l4, curve.bound.astype(int)]
    notes = {"n_bound": int(curve.bound.sum())}
    if cfg["measure"]:
        peaks, contrasts, neglected = [], [], []
        for q in k:
            sig = spectroscopy_two(chain, float(q), t_max_J=cfg["t_max"], sites=sites,
                                   scan=k)
            peaks.append(sig.frequency)
            contrasts.append(sig.contrast if sig.contrast is not None else np.inf)
            neglected.append(sig.neglected_weight)
        names += ["peak_measured", "contrast", "neglected_weight"]
        cols += [np.array(peaks), np.array(contrasts), np.array(neglected)]
        notes["resolution"] = 2 * np.pi / cfg["t_max"]
    write_csv(Path(outdir) / "dispersion2.csv", _meta(cfg), names, cols)
    return notes


def run_phase_diagram(cfg, outdir, seed):
    params = ModelParams(L=cfg["length"], alpha=cfg["alpha"], boundary="ring")
    k_all = quantized_momenta(params.L)
    n_k = _grid_count(cfg, "n_k")
    idx = np.unique(np.round(np.linspace(0, len(k_all) - 1, n_k)).astype(int))
    deltas = _delta_grid(cfg)
    pd = phase_diagram(params, k_values=k_all[idx], deltas=deltas)
    kk, dd = np.meshgrid(pd.k, pd.delta, indexing="ij")
    write_csv(
        Path(outdir) / "phase_diagram.csv",
        _meta(cfg, [("threshold", _fmt(pd.threshold))]),
        ["k", "delta", "l4", "bound"],
        [kk.ravel(), dd.ravel(), pd.l4.ravel(), pd.bound.astype(int).ravel()],
    )
    return {"onset_delta": pd.onset_delta(), "threshold": pd.threshold}


def run_quench(cfg, outdir, seed):
    if not 0 < cfg["front_level"] < 1:  # also rejects NaN
        raise ConfigError(f"'front_level' must lie in (0, 1), got {cfg['front_level']}")
    params = _model(cfg)
    psi0 = _center_pair(cfg, params)
    times = np.linspace(0.0, cfg["t_max"], _grid_count(cfg, "n_times"))
    site, pair = quench_projectors(psi0, params, times)
    notes = {}
    for map_ in (site, pair):
        names = ["time"] + [f"{map_.name}_{int(l)}" for l in map_.labels]
        cols = [map_.times] + [map_.values[:, j] for j in range(len(map_.labels))]
        write_csv(Path(outdir) / f"quench_{map_.name}.csv", _meta(cfg), names, cols)
    part = bs_participation(pair.values, params.L)
    write_csv(Path(outdir) / "participation.csv", _meta(cfg),
              ["time", "participation"], [times, part])
    front_names, front_cols = ["map", "time", "position"], [[], [], []]
    for map_ in (site, pair):
        try:
            fit = front_velocity(map_, level=cfg["front_level"])
        except ValueError as err:
            notes[f"front_{map_.name}"] = f"no fit: {err}"
            continue
        notes[f"front_{map_.name}"] = {
            "velocity": fit.velocity, "residual": fit.residual,
            "n_excluded": fit.n_excluded,
        }
        front_cols[0] += [map_.name] * len(fit.times)
        front_cols[1] += list(fit.times)
        front_cols[2] += list(fit.positions)
    write_csv(Path(outdir) / "front.csv", _meta(cfg), front_names, front_cols)
    return notes


def run_participation(cfg, outdir, seed):
    params = _model(cfg)
    # the notes read the steepest slope between two distinct grid points
    deltas = _delta_grid(cfg, 2)
    if not cfg["delta_max"] > cfg["delta_min"]:
        raise ConfigError(f"'delta_max' must exceed 'delta_min', got "
                          f"{cfg['delta_max']} <= {cfg['delta_min']}")
    compare = (cfg["compare_length"], cfg["compare_t"]) if cfg["compare_length"] else None
    curve = participation_crossover(params, deltas, tJ_eval=cfg["t_eval"],
                                    compare=compare)
    names = ["delta", "participation"]
    cols = [curve.deltas, curve.participation]
    meta_extra = []
    if compare:
        names.append("participation_compare")
        cols.append(curve.compare_participation)
        meta_extra.append(("compare", curve.compare_label))
    write_csv(Path(outdir) / "participation.csv", _meta(cfg, meta_extra), names, cols)
    slope = np.diff(curve.participation) / np.diff(curve.deltas)
    mid = 0.5 * (curve.deltas[1:] + curve.deltas[:-1])
    return {"steepest_slope_delta": float(mid[np.argmax(slope)])}


def run_floquet_bench(cfg, outdir, seed):
    # the notes read detuning zero at the middle grid point
    n_det = cfg["n_det"]
    if n_det < 1 or n_det % 2 == 0 or (n_det < 3 and cfg["det_max"] != 0):
        raise ConfigError(
            f"'n_det' must be odd, so that the middle detuning is zero, and at "
            f"least 3 unless det_max = 0; got {n_det}"
        )
    if not 0 <= cfg["det_max"] < np.inf:  # also rejects NaN
        raise ConfigError(f"'det_max' must be at least 0 and finite, got {cfg['det_max']}")
    n_steps = _grid_count(cfg, "n_steps")
    params = _model(cfg)
    check_pulse_length(params.L)
    psi0 = center_pair_state(params)
    ref_sector = exact_evolve(_cached_sector(params, 2), psi0, cfg["t_eff"])
    masks = enumerate_sector(params.L, 2).masks
    full0 = np.zeros(2 ** params.L, dtype=complex)
    full0[masks] = psi0.data
    ref = np.zeros_like(full0)
    ref[masks] = ref_sector.data
    detunings = np.linspace(-cfg["det_max"], cfg["det_max"], cfg["n_det"])

    f_dd, f_plain = floquet_sweep(("dd", "plain"), params, full0, n_steps,
                                  cfg["t_eff"], detunings, ref).T
    write_csv(Path(outdir) / "floquet_bench.csv", _meta(cfg),
              ["detuning", "fidelity_dd", "fidelity_plain"], [detunings, f_dd, f_plain])
    notes = {"fidelity_dd_zero": float(f_dd[len(detunings) // 2])}
    for name, f in (("dd", f_dd), ("plain", f_plain)):
        width, clipped = _level_width(detunings, f, 0.8)
        notes[f"width_{name}_at_0.8"] = width
        notes[f"width_{name}_at_0.8_clipped"] = clipped
    return notes


def _level_width(x, y, level):
    """(width, clipped) of the contiguous y >= level interval around the
    center; clipped if it reaches a grid edge, where the width is a lower bound."""
    mid = len(x) // 2
    if y[mid] < level:
        return 0.0, False
    lo = hi = mid
    while lo > 0 and y[lo - 1] >= level:
        lo -= 1
    while hi < len(x) - 1 and y[hi + 1] >= level:
        hi += 1
    left = x[lo] if lo == 0 else np.interp(level, [y[lo - 1], y[lo]], [x[lo - 1], x[lo]])
    right = x[hi] if hi == len(x) - 1 else np.interp(
        level, [y[hi + 1], y[hi]], [x[hi + 1], x[hi]])
    return float(right - left), lo == 0 or hi == len(x) - 1


def run_entropy(cfg, outdir, seed):
    params = _model(cfg)
    psi0 = _center_pair(cfg, params)
    times = np.linspace(0.0, cfg["t_max"], _grid_count(cfg, "n_times"))
    A, B = cfg["region_a"], cfg["region_b"]
    try:
        _region_pair(A, B, params.L)
    except ValueError as err:
        raise ConfigError(f"'region_a', 'region_b': {err}") from None
    series = StateVector(propagate(_cached_sector(params, 2), psi0, times), psi0.basis)
    s_a, s_b, s_ab = region_entropies(series, A, B)
    proxies = [config_mutual_proxy_exact(StateVector(data, psi0.basis), A, B)
               for data in series.data]
    rows = {
        "mutual_info": s_a + s_b - s_ab,
        "proxy": np.array([est.value for est in proxies]),
        "proxy_config_only": np.array([est.config_only for est in proxies]),
        "s_a": s_a,
        "s_b": s_b,
        "s_ab": s_ab,
    }
    write_csv(Path(outdir) / "entropy.csv", _meta(cfg), ["time"] + list(rows),
              [times] + list(rows.values()))
    return {}


def run_sample(cfg, outdir, seed):
    n_snapshots = _grid_count(cfg, "n_snapshots", 2)  # the jackknife needs two
    if cfg["postselect_n"] not in (-1, 2):
        raise ConfigError(f"'postselect_n' must be -1 (off) or 2, got {cfg['postselect_n']}: "
                          "every snapshot of the two-magnon state holds two magnons, so "
                          "any other count retains none")
    params = _model(cfg)
    psi0 = _center_pair(cfg, params)
    psi = exact_evolve(_cached_sector(params, 2), psi0, cfg["t"])
    snaps = sample_snapshots(psi, n_snapshots, seed=(seed, 0),
                             params=params, t_J=cfg["t"])
    if cfg["postselect_n"] >= 0:
        snaps = postselect(snaps, cfg["postselect_n"])
    save_snapshots(Path(outdir) / "snapshots.txt", snaps)
    part, part_err = jackknife(estimate_participation, snaps)
    pup, pup_err = jackknife(estimate_pup, snaps)
    pupp, pupp_err = jackknife(estimate_pupp, snaps)
    quantity = (["participation"] + ["pup"] * params.L + ["pupp"] * (params.L - 1))
    label = [0] + list(range(1, params.L + 1)) + list(range(1, params.L))
    value = np.concatenate([[part], pup, pupp])
    error = np.concatenate([[part_err], pup_err, pupp_err])
    write_csv(Path(outdir) / "estimates.csv", _meta(cfg),
              ["quantity", "site", "value", "error"], [quantity, label, value, error])
    return {"n_retained": snaps.n_retained, "retention": snaps.retention}


EXPERIMENTS = {
    "dispersion1": run_dispersion1,
    "dispersion2": run_dispersion2,
    "phase-diagram": run_phase_diagram,
    "quench": run_quench,
    "participation": run_participation,
    "floquet-bench": run_floquet_bench,
    "entropy": run_entropy,
    "sample": run_sample,
}

# figure presets: list of (experiment, config overrides, subdirectory)
PRESETS = {
    "fig1c": [("dispersion1", {"length": 20, "measure": 1}, "")],
    "fig1d": [("dispersion2", {"length": 20, "delta": 3.0, "measure": 1}, "")],
    "fig2": [
        ("quench", {"length": 20, "delta": 1.0, "t_max": 5.5}, "delta1.0"),
        ("quench", {"length": 20, "delta": 2.0, "t_max": 4.1}, "delta2.0"),
        ("quench", {"length": 20, "delta": 3.5, "t_max": 3.0}, "delta3.5"),
    ],
    "fig3": [
        ("participation", {"length": 20, "compare_length": 40, "compare_t": 4.0}, ""),
        ("quench", {"length": 20, "delta": 2.5, "t_max": 4.0, "n_times": 33}, "front_delta2.5"),
        ("quench", {"length": 20, "delta": 3.0, "t_max": 4.0, "n_times": 33}, "front_delta3.0"),
        ("quench", {"length": 20, "delta": 3.5, "t_max": 4.0, "n_times": 33}, "front_delta3.5"),
        ("quench", {"length": 20, "delta": 4.0, "t_max": 4.0, "n_times": 33}, "front_delta4.0"),
    ],
    "fig4": [
        ("entropy", {"length": 20, "delta": 0.5, "separation": 1}, "delta0.5_adjacent"),
        ("entropy", {"length": 20, "delta": 0.5, "separation": 2}, "delta0.5_separated"),
        ("entropy", {"length": 20, "delta": 4.5, "separation": 1}, "delta4.5_adjacent"),
        ("entropy", {"length": 20, "delta": 4.5, "separation": 2}, "delta4.5_separated"),
    ],
    "figS5": [("phase-diagram", {"length": 300, "n_k": 40, "n_delta": 17}, "")],
    "figS6": [("floquet-bench", {"length": 10, "delta": 3.5, "t_eff": 3.3,
                                 "n_steps": 128}, "")],
}


# -------------------------------------------------------------------- main


def _execute(experiment, cfg, outdir, seed):
    """Run one experiment on one BLAS thread in a staging directory and move its
    files into outdir once they and the manifest are written, or none of them.

    Every stage below ``ONE_THREAD_BELOW_DIM`` keeps that one thread, and a
    dense stage at or above it gets the starting count back
    (``spectral._blas_threads``); the counts are restored afterwards.
    """
    start = time.perf_counter()
    outdir = Path(outdir)
    with tempfile.TemporaryDirectory(prefix="magnonlab-") as staging:
        with _blas_threads(0):
            notes = EXPERIMENTS[experiment](cfg, Path(staging), seed)
            write_manifest(staging, experiment, cfg, seed, notes,
                           time.perf_counter() - start)
        # old manifest out first, new one in last: a manifest matches its files
        files = sorted(Path(staging).iterdir(), key=lambda p: p.name == "manifest.json")
        taken = [f.name for f in files if (outdir / f.name).is_dir()]
        if taken:  # shutil.move would put the file inside such a directory
            raise ConfigError(f"--out {outdir} holds directories named {taken}")
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "manifest.json").unlink(missing_ok=True)
        for path in files:
            shutil.move(path, outdir / path.name)
    return notes


def _check_out(outdir):
    """ConfigError if outdir, or a directory it would lie in, exists as something
    other than a directory: publishing could not make outdir there."""
    for path in (outdir, *outdir.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {outdir}: {path} exists and is not a directory")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="magnonlab",
        description="Long-range XXZ magnon experiments: spectra, quenches, "
                    "Floquet benchmarks, snapshot entropies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for key, spec in _with_time_twins(schema).items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, metavar=spec.kind.upper(),
                           help=f"{spec.help} (default {spec.default})")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key = value config file")
        _common_flags(p)
    rep = sub.add_parser("reproduce", help="one-shot figure-data presets")
    rep.add_argument("figure", choices=PRESETS)
    _common_flags(rep)
    return parser


def _common_flags(p):
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (default runs/<experiment>)")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored, kept for old scripts: every experiment runs "
                        "serially on one BLAS thread, and only dense blocks of "
                        f"dim {ONE_THREAD_BELOW_DIM} or more get the starting "
                        "thread count back")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.experiment == "reproduce":
            base = Path(args.out or f"runs/reproduce/{args.figure}")
            runs = [(experiment, {}, overrides, base / subdir)
                    for experiment, overrides, subdir in PRESETS[args.figure]]
        else:
            flags = {k: getattr(args, k) for k in _with_time_twins(SCHEMAS[args.experiment])}
            file_cfg = read_config_file(args.config) if args.config else {}
            runs = [(args.experiment, file_cfg, flags,
                     Path(args.out or f"runs/{args.experiment}"))]
        for *_, outdir in runs:
            _check_out(outdir)
        for experiment, file_cfg, flags, outdir in runs:
            cfg = resolve_config(experiment, file_cfg, flags)
            notes = _execute(experiment, cfg, outdir, args.seed)
            print(f"{experiment}: wrote {outdir} {json.dumps(_jsonable(notes))}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
