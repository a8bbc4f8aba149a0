"""Command-line driver: flat configs, experiment dispatch, CSV/JSON artifacts.

Every subcommand resolves its settings in three layers, later wins:
built-in defaults < config file (--config, flat ``key = value`` lines,
``#`` comments) < explicit command-line flags. Unknown config keys are
rejected before any computation. Times are dimensionless tJ; any time key
also accepts a ``<key>_s`` twin in seconds, converted once at ingest using
the ``coupling`` key (J in rad/s). Site labels are 1-based everywhere.

Each run writes CSV files (with ``#``-prefixed metadata header lines) plus
``manifest.json`` carrying the resolved config, a sha256 per artifact, a
content hash over config+artifacts, and the wall time. Outputs are
byte-identical for identical (config, seed, version); the wall time lives
only outside the hashed payload. All randomness flows from the single
--seed root through numbered sub-streams.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    DEFAULT_REGION_A,
    DEFAULT_REGION_B,
    config_mutual_proxy_exact,
    region_entropies,
)
from .evolve import check_pulse_length, exact_evolve, floquet_evolve, propagate
from .model import (
    ModelParams,
    StateVector,
    enumerate_sector,
    sector_hamiltonian,
)
from .probes import (
    bs_participation,
    center_pair_state,
    front_velocity,
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
        "t_max": KeySpec("float", 16.0, "spectroscopy window", time=True),
    },
    "dispersion2": {
        **MODEL_KEYS,
        "measure": KeySpec("int", 0, "1: add FFT peaks from pair spectroscopy"),
        "sites": KeySpec("sites", (8, 13), "readout window for pair spectroscopy"),
        "t_max": KeySpec("float", 8.0, "spectroscopy window", time=True),
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
        "t_max": KeySpec("float", 5.5, "evolution window", time=True),
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
        "t_eff": KeySpec("float", 3.3, "target effective time", time=True),
        "n_steps": KeySpec("int", 128, "pulse steps"),
        "det_max": KeySpec("float", 2.0, "detuning sweep half-width (units of J)"),
        "n_det": KeySpec("int", 21, "detuning grid points"),
    },
    "entropy": {
        **MODEL_KEYS,
        "separation": KeySpec("int", 1, "initial magnon separation in sites"),
        "t_max": KeySpec("float", 3.0, "evolution window", time=True),
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

FIGURES = ("fig1c", "fig1d", "fig2", "fig3", "fig4", "figS5", "figS6")


def _with_time_twins(schema):
    out = dict(schema)
    for key, spec in schema.items():
        if spec.time:
            out[key + "_s"] = KeySpec("float", 0.0, f"{key} in seconds (needs coupling)")
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
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
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
    for key, raw in file_cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key for {experiment}: '{key}'")
        vals[key] = _convert(key, schema[key], raw, "config file")
    for key, raw in cli_cfg.items():
        if raw is None:
            continue
        vals[key] = _convert(key, schema[key], raw, "command line")
    for key, spec in SCHEMAS[experiment].items():
        if not spec.time:
            continue
        seconds = vals.pop(key + "_s")
        if seconds:
            coupling = vals.get("coupling", 0.0)
            if coupling <= 0:
                raise ConfigError(
                    f"'{key}_s' given in seconds but 'coupling' (rad/s) is not set"
                )
            vals[key] = seconds * coupling
    return vals


def _model(cfg):
    return ModelParams(
        L=cfg["length"], alpha=cfg["alpha"], delta=cfg.get("delta", 0.0),
        J=1.0, boundary=cfg.get("boundary", "open"),
    )


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
    return path


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_manifest(outdir, experiment, cfg, seed, files, notes, elapsed):
    payload = {
        "experiment": experiment,
        "config": _jsonable(cfg),
        "seed": seed,
        "artifacts": {Path(f).name: _sha256(f) for f in files},
        "version": __version__,
    }
    payload["content_hash"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["notes"] = _jsonable(notes)
    payload["wall_time_s"] = round(elapsed, 3)
    path = Path(outdir) / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _meta(cfg, extra=()):
    items = [(k, _fmt(v) if not isinstance(v, tuple) else ",".join(map(str, v)))
             for k, v in sorted(cfg.items())]
    return items + list(extra)


# -------------------------------------------------------------- experiments


def run_dispersion1(cfg, outdir, seed):
    params = _model(cfg)
    if params.boundary == "ring":
        k = quantized_momenta(params.L)
    else:
        k = standing_wave_momenta(params.L)
    energy = np.array([dispersion_one(float(q), params) for q in k])
    velocity = np.array([group_velocity_one(float(q), params) for q in k])
    names = ["index", "k", "energy", "velocity"]
    cols = [np.arange(1, len(k) + 1), k, energy, velocity]
    notes = {}
    if cfg["measure"]:
        if params.boundary != "open":
            raise ConfigError("measure = 1 needs boundary = open (standing waves)")
        ref = float(k[0])
        beat_ref = dispersion_one(ref, params)

        signals = [spectroscopy_one(params, float(q), t_max_J=cfg["t_max"])
                   for q in k]
        measured = np.array([s.frequency for s in signals])
        analytic = np.abs(energy - beat_ref)
        names += ["beat_measured", "beat_analytic", "resolution"]
        cols += [measured, analytic, np.array([s.resolution for s in signals])]
        notes["max_beat_error_bins"] = float(
            np.max(np.abs(measured - analytic) / signals[0].resolution)
        )
    path = write_csv(Path(outdir) / "dispersion1.csv", _meta(cfg), names, cols)
    return [path], notes


def run_dispersion2(cfg, outdir, seed):
    ring = ModelParams(L=cfg["length"], alpha=cfg["alpha"], delta=cfg["delta"],
                       J=1.0, boundary="ring")
    k = quantized_momenta(ring.L)
    curve = dispersion_two(k, ring)
    names = ["k", "energy", "l4", "bound"]
    cols = [curve.k, curve.energy, curve.l4, curve.bound.astype(int)]
    files, notes = [], {"n_bound": int(curve.bound.sum())}
    if cfg["measure"]:
        chain = _model(cfg)  # open chain carries the measurement
        sites = cfg["sites"]
        peaks, contrasts, neglected = [], [], []
        for q in k:
            sig = spectroscopy_two(chain, float(q), t_max_J=cfg["t_max"], sites=sites)
            peaks.append(sig.frequency)
            contrasts.append(sig.contrast if sig.contrast is not None else np.inf)
            neglected.append(sig.neglected_weight)
        names += ["peak_measured", "contrast", "neglected_weight"]
        cols += [np.array(peaks), np.array(contrasts), np.array(neglected)]
        notes["resolution"] = 2 * np.pi / cfg["t_max"]
    files.append(write_csv(Path(outdir) / "dispersion2.csv", _meta(cfg), names, cols))
    return files, notes


def run_phase_diagram(cfg, outdir, seed):
    params = ModelParams(L=cfg["length"], alpha=cfg["alpha"], boundary="ring")
    k_all = quantized_momenta(params.L)
    idx = np.unique(np.round(np.linspace(0, len(k_all) - 1, cfg["n_k"])).astype(int))
    deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["n_delta"])
    pd = phase_diagram(params, k_values=k_all[idx], deltas=deltas)
    kk, dd = np.meshgrid(pd.k, pd.delta, indexing="ij")
    path = write_csv(
        Path(outdir) / "phase_diagram.csv",
        _meta(cfg, [("threshold", _fmt(pd.threshold))]),
        ["k", "delta", "l4", "bound"],
        [kk.ravel(), dd.ravel(), pd.l4.ravel(), pd.bound.astype(int).ravel()],
    )
    return [path], {"onset_delta": pd.onset_delta(), "threshold": pd.threshold}


def run_quench(cfg, outdir, seed):
    params = _model(cfg)
    psi0 = center_pair_state(params, cfg["separation"])
    times = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    site, pair = quench_projectors(psi0, params, times)
    files, notes = [], {}
    for map_ in (site, pair):
        names = ["time"] + [f"{map_.name}_{int(l)}" for l in map_.labels]
        cols = [map_.times] + [map_.values[:, j] for j in range(len(map_.labels))]
        files.append(write_csv(Path(outdir) / f"quench_{map_.name}.csv",
                               _meta(cfg), names, cols))
    part = bs_participation(pair.values, params.L)
    files.append(write_csv(Path(outdir) / "participation.csv", _meta(cfg),
                           ["time", "participation"], [times, part]))
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
    files.append(write_csv(Path(outdir) / "front.csv", _meta(cfg),
                           front_names, front_cols))
    return files, notes


def run_participation(cfg, outdir, seed):
    params = ModelParams(L=cfg["length"], alpha=cfg["alpha"], J=1.0,
                         boundary=cfg["boundary"])
    deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["n_delta"])
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
    path = write_csv(Path(outdir) / "participation.csv",
                     _meta(cfg, meta_extra), names, cols)
    slope = np.diff(curve.participation) / np.diff(curve.deltas)
    mid = 0.5 * (curve.deltas[1:] + curve.deltas[:-1])
    return [path], {"steepest_slope_delta": float(mid[np.argmax(slope)])}


def run_floquet_bench(cfg, outdir, seed):
    params = _model(cfg)
    check_pulse_length(params.L)
    psi0 = center_pair_state(params)
    ref_sector = exact_evolve(sector_hamiltonian(params, 2), psi0, cfg["t_eff"])
    masks = np.asarray(enumerate_sector(params.L, 2).masks, dtype=np.int64)
    full0 = np.zeros(2 ** params.L, dtype=complex)
    full0[masks] = psi0.data
    ref = np.zeros_like(full0)
    ref[masks] = ref_sector.data
    detunings = np.linspace(-cfg["det_max"], cfg["det_max"], cfg["n_det"])

    # both sequences back to back per detuning share one cached eigensystem
    f_dd, f_plain = np.array([
        [floquet_evolve(seq, params, full0, cfg["n_steps"], cfg["t_eff"],
                        detuning=float(det), reference=ref).fidelity
         for seq in ("dd", "plain")]
        for det in detunings
    ]).T
    path = write_csv(Path(outdir) / "floquet_bench.csv", _meta(cfg),
                     ["detuning", "fidelity_dd", "fidelity_plain"],
                     [detunings, f_dd, f_plain])
    notes = {
        "fidelity_dd_zero": float(f_dd[len(detunings) // 2]),
        "width_dd_at_0.8": _level_width(detunings, f_dd, 0.8),
        "width_plain_at_0.8": _level_width(detunings, f_plain, 0.8),
    }
    return [path], notes


def _level_width(x, y, level):
    """Width of the contiguous y >= level interval around the center."""
    mid = len(x) // 2
    if y[mid] < level:
        return 0.0
    lo = hi = mid
    while lo > 0 and y[lo - 1] >= level:
        lo -= 1
    while hi < len(x) - 1 and y[hi + 1] >= level:
        hi += 1
    left = x[lo] if lo == 0 else np.interp(level, [y[lo - 1], y[lo]], [x[lo - 1], x[lo]])
    right = x[hi] if hi == len(x) - 1 else np.interp(
        level, [y[hi + 1], y[hi]], [x[hi + 1], x[hi]])
    return float(right - left)


def run_entropy(cfg, outdir, seed):
    params = _model(cfg)
    psi0 = center_pair_state(params, cfg["separation"])
    times = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    A, B = cfg["region_a"], cfg["region_b"]
    rows = {name: [] for name in
            ("mutual_info", "proxy", "proxy_config_only", "s_a", "s_b", "s_ab")}
    for data in propagate(sector_hamiltonian(params, 2), psi0, times):
        psi = StateVector(data=data, basis=psi0.basis)
        s_a, s_b, s_ab = region_entropies(psi, A, B)
        rows["mutual_info"].append(s_a + s_b - s_ab)
        est = config_mutual_proxy_exact(psi, A, B)
        rows["proxy"].append(est.value)
        rows["proxy_config_only"].append(est.config_only)
        rows["s_a"].append(s_a)
        rows["s_b"].append(s_b)
        rows["s_ab"].append(s_ab)
    path = write_csv(Path(outdir) / "entropy.csv", _meta(cfg),
                     ["time"] + list(rows),
                     [times] + [np.array(v) for v in rows.values()])
    return [path], {}


def run_sample(cfg, outdir, seed):
    params = _model(cfg)
    psi0 = center_pair_state(params, cfg["separation"])
    psi = exact_evolve(sector_hamiltonian(params, 2), psi0, cfg["t"])
    snaps = sample_snapshots(psi, cfg["n_snapshots"], seed=(seed, 0),
                             params=params, t_J=cfg["t"])
    if cfg["postselect_n"] >= 0:
        snaps = postselect(snaps, cfg["postselect_n"])
    files = [Path(outdir) / "snapshots.txt"]
    save_snapshots(files[0], snaps)
    part, part_err = jackknife(estimate_participation, snaps)
    pup, pup_err = jackknife(estimate_pup, snaps)
    pupp, pupp_err = jackknife(estimate_pupp, snaps)
    quantity = (["participation"] + ["pup"] * params.L + ["pupp"] * (params.L - 1))
    label = [0] + list(range(1, params.L + 1)) + list(range(1, params.L))
    value = np.concatenate([[part], pup, pupp])
    error = np.concatenate([[part_err], pup_err, pupp_err])
    files.append(write_csv(Path(outdir) / "estimates.csv", _meta(cfg),
                           ["quantity", "site", "value", "error"],
                           [quantity, label, value, error]))
    return files, {"n_retained": snaps.n_retained, "retention": snaps.retention}


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
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    existing = set(outdir.iterdir())
    start = time.perf_counter()
    try:
        files, notes = EXPERIMENTS[experiment](cfg, outdir, seed)
        write_manifest(outdir, experiment, cfg, seed, files,
                       notes, time.perf_counter() - start)
    except BaseException:
        # a failed run leaves no partial artifacts; earlier files stay, but
        # an earlier manifest only while every digest in it still holds
        for path in set(outdir.iterdir()) - existing:
            if path.is_file():
                path.unlink()
        manifest = outdir / "manifest.json"
        if manifest.is_file() and not _manifest_holds(manifest):
            manifest.unlink()
        raise
    return notes


def _manifest_holds(path):
    """True if every artifact the manifest names still has its recorded sha256."""
    try:
        artifacts = json.loads(path.read_text())["artifacts"].items()
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    folder = path.parent
    return all((folder / name).is_file() and _sha256(folder / name) == digest
               for name, digest in artifacts)


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
        _common_flags(p)
    rep = sub.add_parser("reproduce", help="one-shot figure-data presets")
    rep.add_argument("figure", choices=FIGURES)
    _common_flags(rep)
    return parser


def _common_flags(p):
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key = value config file")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (default runs/<experiment>)")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored; every experiment runs serially, and the "
                        "flag is kept for old scripts")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.experiment == "reproduce":
            base = Path(args.out or f"runs/reproduce/{args.figure}")
            for experiment, overrides, subdir in PRESETS[args.figure]:
                cfg = resolve_config(experiment, {}, {})
                cfg.update(overrides)
                notes = _execute(experiment, cfg, base / subdir if subdir else base,
                                 args.seed)
                print(f"{args.figure}/{subdir or experiment}: done "
                      f"{json.dumps(_jsonable(notes))}")
            return 0
        file_cfg = read_config_file(args.config) if args.config else {}
        skip = {"experiment", "config", "out", "seed", "threads"}
        cli_cfg = {k: v for k, v in vars(args).items() if k not in skip}
        cfg = resolve_config(args.experiment, file_cfg, cli_cfg)
        outdir = args.out or f"runs/{args.experiment}"
        notes = _execute(args.experiment, cfg, outdir, args.seed)
        print(f"{args.experiment}: wrote {outdir} {json.dumps(_jsonable(notes))}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
