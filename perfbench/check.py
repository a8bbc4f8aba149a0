"""Artifact checker: compares a run's outputs with stored reference values.

One experiment is one ``manifest.json``. It passes when its manifest
exists, every reference artifact is present, every reference column is
present with the same number of rows and within that column's tolerance,
and the manifest notes match. New columns, files and notes are ignored, so
a later change may add outputs without touching the references.

Seeded experiments (``sample``) are checked two ways. For the seed the
references were recorded with (the ``seed`` of ``reference/*.json``), the
snapshot file must be byte-identical and every column must match. For any
other seed, each jackknife estimate must lie within ``Z_SCORE`` of its own
standard errors of the exact Born value stored for that (delta, t), plus a
floor of ``Z_SCORE**2 / N`` that covers rare configurations no snapshot hit
(zero spread, estimate 0 or 1). Each reported standard error must in turn
lie within ``Z_SCORE / N`` (times the estimate's ``error_scale``) of the
exact one. For a 0/1 mean over N snapshots the error is about sqrt(k) / N
for k hits, and sqrt(k) strays from sqrt(N p) by more than ``Z_SCORE``
with negligible probability for any p, rare configurations (k = 0)
included; the expected number of false failures per execution of the
snapshot workload is below 1e-7 for either test.

The checker uses only the standard library, so the benchmark process never
imports numpy and stays out of the measured memory and CPU.
"""

import hashlib
import json
import math
from pathlib import Path

Z_SCORE = 5.0

EXACT = "exact"
GRID = (1e-12, 1e-12)  # inputs echoed from the config grid
VALUE = (1e-6, 1e-9)  # computed physics: roundoff of a changed algorithm fits

# (artifact, column) -> EXACT or (rtol, atol)
TOLERANCES = {
    ("dispersion2.csv", "k"): GRID,
    ("dispersion2.csv", "energy"): VALUE,
    ("dispersion2.csv", "l4"): VALUE,
    ("dispersion2.csv", "bound"): EXACT,
    ("dispersion2.csv", "peak_measured"): VALUE,
    ("dispersion2.csv", "contrast"): VALUE,
    ("dispersion2.csv", "neglected_weight"): VALUE,
    ("floquet_bench.csv", "detuning"): GRID,
    ("floquet_bench.csv", "fidelity_dd"): VALUE,
    ("floquet_bench.csv", "fidelity_plain"): VALUE,
    ("phase_diagram.csv", "k"): GRID,
    ("phase_diagram.csv", "delta"): GRID,
    ("phase_diagram.csv", "l4"): VALUE,
    ("phase_diagram.csv", "bound"): EXACT,
    ("estimates.csv", "quantity"): EXACT,
    ("estimates.csv", "site"): EXACT,
    ("estimates.csv", "value"): VALUE,
    ("estimates.csv", "error"): VALUE,
    ("entropy.csv", "time"): GRID,
    ("entropy.csv", "mutual_info"): VALUE,
    ("entropy.csv", "proxy"): VALUE,
    ("entropy.csv", "proxy_config_only"): VALUE,
    ("entropy.csv", "s_a"): VALUE,
    ("entropy.csv", "s_b"): VALUE,
    ("entropy.csv", "s_ab"): VALUE,
}
# manifest notes that must not move at all; other numeric notes use VALUE
EXACT_NOTES = {"n_bound", "onset_delta", "n_retained"}
SEEDED_FILES = {"snapshots.txt"}  # compared byte for byte at the recorded seed only


class CheckError(Exception):
    """An artifact that does not match its reference."""


def read_csv(path):
    """{column: [token, ...]} of a magnonlab CSV (``#`` lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    if not lines:
        raise CheckError(f"{path.name}: no header")
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(names) for r in rows):
        raise CheckError(f"{path.name}: ragged rows")
    return {name: [r[i] for r in rows] for i, name in enumerate(names)}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _number(token):
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


def _close(got, want, tol):
    if tol == EXACT:
        return got == want
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if math.isinf(a) or math.isinf(b) or math.isnan(b):
        return got == want
    rtol, atol = tol
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_columns(name, got, want):
    for column, ref in want.items():
        tol = TOLERANCES.get((name, column))
        if tol is None:
            raise CheckError(f"{name}:{column}: no tolerance defined")
        if column not in got:
            raise CheckError(f"{name}: column {column} missing")
        if len(got[column]) != len(ref):
            raise CheckError(f"{name}:{column}: {len(got[column])} rows, want {len(ref)}")
        for i, (g, w) in enumerate(zip(got[column], ref)):
            if not _close(g, w, tol):
                raise CheckError(f"{name}:{column}[{i}] = {g}, want {w}")


def _compare_notes(got, want):
    for key, ref in want.items():
        if key not in got:
            raise CheckError(f"note {key} missing")
        tol = EXACT if key in EXACT_NOTES else VALUE
        if isinstance(ref, (dict, list)) or isinstance(got[key], (dict, list)):
            ok = got[key] == ref
        else:
            ok = _close(json.dumps(got[key]), json.dumps(ref), tol)
        if not ok:
            raise CheckError(f"note {key} = {got[key]!r}, want {ref!r}")


def _compare_born(got, born):
    """Seeded estimates against exact Born values, in their own errors."""
    for col in ("quantity", "site", "value", "error"):
        if col not in got:
            raise CheckError(f"estimates.csv: column {col} missing")
    n = born["n"]
    rows = list(zip(got["quantity"], got["site"], got["value"], got["error"]))
    if len(rows) != len(born["values"]):
        raise CheckError(f"estimates.csv: {len(rows)} rows, want {len(born['values'])}")
    for quantity, site, value, error in rows:
        key = f"{quantity}/{site}"
        if key not in born["values"]:
            raise CheckError(f"estimates.csv: unexpected row {key}")
        exact = born["values"][key]
        allowed = Z_SCORE * float(error) + Z_SCORE ** 2 / n
        if not abs(float(value) - exact) <= allowed:
            raise CheckError(f"estimates.csv:{key} = {value} +- {error}, "
                             f"exact {exact!r} (allowed {allowed:.3g})")
        exact_error = born["errors"][key]
        allowed = Z_SCORE * born["error_scale"].get(key, 1.0) / n
        if not abs(float(error) - exact_error) <= allowed:
            raise CheckError(f"estimates.csv:{key} error = {error}, "
                             f"exact {exact_error!r} (allowed {allowed:.3g})")


def check_experiment(outdir, ref, recorded_seed):
    """Raise CheckError unless the experiment in ``outdir`` matches ``ref``.

    ``recorded_seed`` says whether the run used the references' own seed.
    Returns whether the manifest's content hash equals the recorded one.
    """
    outdir = Path(outdir)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        raise CheckError("manifest.json missing")
    manifest = json.loads(manifest_path.read_text())
    recorded = "born" not in ref or recorded_seed
    for name, want in ref["artifacts"].items():
        path = outdir / name
        if not path.is_file():
            raise CheckError(f"{name} missing")
        if name in SEEDED_FILES:
            if recorded and sha256(path) != want["sha256"]:
                raise CheckError(f"{name}: bytes differ from the recorded seed")
        elif recorded:
            _compare_columns(name, read_csv(path), want["columns"])
        else:
            _compare_born(read_csv(path), ref["born"])
    _compare_notes(manifest.get("notes", {}), ref["notes"])
    return manifest.get("content_hash") == ref["content_hash"]


def check_run(out_root, reference, seed):
    """Per experiment: (relative dir, ok, message, content hash matched)."""
    results = []
    for rel, ref in reference["experiments"].items():
        try:
            matched = check_experiment(Path(out_root) / rel, ref,
                                       seed == reference["seed"])
            results.append((rel, True, "", matched))
        except (CheckError, OSError, ValueError, KeyError) as err:
            results.append((rel, False, str(err), False))
    return results


def reference_from_run(out_root, rel_dirs, seed, born):
    """Reference record of a finished run; ``born(config)`` for seeded ones."""
    experiments = {}
    for rel in rel_dirs:
        outdir = Path(out_root) / rel
        manifest = json.loads((outdir / "manifest.json").read_text())
        artifacts = {}
        for name in manifest["artifacts"]:
            if name in SEEDED_FILES:
                artifacts[name] = {"sha256": sha256(outdir / name)}
            else:
                columns = read_csv(outdir / name)
                for column in columns:
                    if (name, column) not in TOLERANCES:
                        raise CheckError(f"{name}:{column}: no tolerance defined")
                artifacts[name] = {"columns": columns}
        entry = {"content_hash": manifest["content_hash"], "notes": manifest["notes"],
                 "artifacts": artifacts}
        if manifest["experiment"] == "sample":
            entry["born"] = born(manifest["config"])
        experiments[rel] = entry
    return {"seed": seed, "experiments": experiments}


def tree_digest(root):
    """{relative path: digest} of a run's outputs, for traced-vs-untraced.

    Manifests are reduced to their content hash, since they also carry the
    wall time.
    """
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        if path.name == "manifest.json":
            out[rel] = json.loads(path.read_text()).get("content_hash")
        else:
            out[rel] = sha256(path)
    return out
