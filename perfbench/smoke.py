"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/smoke.py

Not named ``test_*.py``, so the repository's own test run does not pick
it up. Every workload runs at ``scale="tiny"``; the checker must
pass its own recording and flag perturbed artifacts; the tracer must leave
outputs byte-identical and restore every original object.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import thread as futures_thread
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_run, reference_from_run, tree_digest  # noqa: E402
from record import RECORDED_SEED, born_values  # noqa: E402
from run import ROOT, child_env, run_once  # noqa: E402
from tracer import MODULES, Tracer, per_layer  # noqa: E402
from workloads import WHY, calls, experiment_dirs  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))


def _run(tmp_path, workload, seed=RECORDED_SEED, trace=False, name="rep"):
    call_list = calls(workload, seed, scale="tiny")
    rep = run_once(call_list, tmp_path / name, child_env(tmp_path), trace=trace)
    assert rep["result"] is not None, rep["log"].read_text()
    assert all(c["rc"] == 0 for c in rep["result"]["calls"]), rep["result"]["calls"]
    return rep, call_list


def _reference(rep, call_list):
    return reference_from_run(rep["out"], experiment_dirs(call_list), RECORDED_SEED,
                              born=born_values)


@pytest.mark.parametrize("workload", sorted(WHY))
def test_tiny_workload_passes_its_own_reference(tmp_path, workload):
    rep, call_list = _run(tmp_path, workload)
    results = check_run(rep["out"], _reference(rep, call_list), RECORDED_SEED)
    assert [r[1] for r in results] == [True] * len(results), results
    assert all(r[3] for r in results)


def test_other_seed_is_checked_against_born_values(tmp_path):
    rep, call_list = _run(tmp_path, "snapshot_stats", name="recorded")
    reference = _reference(rep, call_list)
    other, _ = _run(tmp_path, "snapshot_stats", seed=RECORDED_SEED + 5, name="other")
    results = check_run(other["out"], reference, RECORDED_SEED + 5)
    assert all(r[1] for r in results), results
    # the same outputs claimed for the recorded seed must match exactly, and do not
    strict = check_run(other["out"], reference, RECORDED_SEED)
    assert not all(r[1] for r in strict)


def _rewrite_csv(path, column, edit):
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    row = lines[head + 1].split(",")
    row[col] = edit(row[col])
    lines[head + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, edit", [
    ("l4", lambda v: repr(float(v) * (1 + 1e-4))),
    ("bound", lambda v: "1" if v == "0" else "0"),
    ("delta", lambda v: repr(float(v) + 1e-6)),
])
def test_checker_flags_perturbed_artifact(tmp_path, column, edit):
    rep, call_list = _run(tmp_path, "phase_map")
    reference = _reference(rep, call_list)
    _rewrite_csv(rep["out"] / "phase" / "phase_diagram.csv", column, edit)
    results = check_run(rep["out"], reference, RECORDED_SEED)
    assert not results[0][1]
    assert column in results[0][2]


def test_checker_flags_missing_outputs_but_not_new_ones(tmp_path):
    rep, call_list = _run(tmp_path, "pulsed_sweep")
    reference = _reference(rep, call_list)
    csv = rep["out"] / "floquet" / "floquet_bench.csv"
    lines = csv.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[head:] = [lines[head] + ",extra"] + [ln + ",0" for ln in lines[head + 1:]]
    csv.write_text("\n".join(lines) + "\n")
    (rep["out"] / "floquet" / "extra.txt").write_text("new artifact\n")
    assert check_run(rep["out"], reference, RECORDED_SEED)[0][1]
    (rep["out"] / "floquet" / "manifest.json").unlink()
    result = check_run(rep["out"], reference, RECORDED_SEED)[0]
    assert not result[1] and "manifest" in result[2]


def _bindings(package):
    out = {}
    for name in MODULES:
        mod = getattr(package, name)
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                out.update({(name, attr, k): v for k, v in obj.items()})
            if isinstance(obj, type):
                out.update({(name, attr, k): v for k, v in vars(obj).items()})
    out["submit"] = futures_thread.ThreadPoolExecutor.__dict__["submit"]
    return out


def test_tracer_wraps_and_restores_originals():
    import magnonlab
    import magnonlab.cli

    before = _bindings(magnonlab)
    tracer = Tracer(magnonlab).install()
    try:
        assert magnonlab.cli.spectroscopy_two is not before[("cli", "spectroscopy_two")]
        assert magnonlab.cli.EXPERIMENTS["sample"] is not before[("cli", "EXPERIMENTS",
                                                                  "sample")]
        assert "model.SectorOperator.eigensystem" in tracer.wrapped
    finally:
        tracer.uninstall()
    after = _bindings(magnonlab)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_missing_function_gives_absent_metric(monkeypatch):
    import magnonlab
    import magnonlab.cli
    from magnonlab.model import ModelParams

    monkeypatch.delattr(magnonlab.probes, "_pair_lowering_block")
    monkeypatch.delattr(magnonlab.evolve, "krylov_evolve")
    tracer = Tracer(magnonlab).install()
    try:
        magnonlab.spectral.phase_diagram(ModelParams(L=12, alpha=1.4, boundary="ring"),
                                         deltas=[0.0, 3.0], threads=2)
    finally:
        tracer.uninstall()
    record = tracer.record()
    metrics = per_layer(record)
    assert "probes.pair_lowering.hits" not in metrics
    assert metrics["probes.cached_sector.hits"] == 0
    assert metrics["spectral.two_magnon_block.calls"] == 6
    # rows computed in the pool are charged to the phase_diagram span
    names = {s[0]: s[1] for s in record["spans"]}
    parents = {names.get(s[4]) for s in record["spans"] if s[1] == "spectral.two_magnon_block"}
    assert parents == {"spectral.phase_diagram"}


def test_failing_hook_gives_absent_count_not_a_crash(monkeypatch):
    import magnonlab
    import magnonlab.cli
    import numpy as np
    from magnonlab.sampling import SnapshotSet, estimate_pup

    import tracer as tracer_module

    monkeypatch.setitem(tracer_module.HOOKS, "sampling.jackknife", (
        None, tracer_module._counter("sampling.jackknife.rows", "renamed", len)))
    bits = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    snaps = SnapshotSet(bits=bits, L=3, seed=0, n_total=3)
    tracer = Tracer(magnonlab).install()
    try:
        value, _ = magnonlab.sampling.jackknife(estimate_pup, snaps)
    finally:
        tracer.uninstall()
    assert np.allclose(value, bits.mean(axis=0))
    metrics = per_layer(tracer.record())
    assert metrics["sampling.jackknife.calls"] == 1
    assert "sampling.jackknife.rows" not in metrics


def test_traced_run_is_byte_identical(tmp_path):
    plain, _ = _run(tmp_path, "two_magnon_spectroscopy", name="plain")
    traced, _ = _run(tmp_path, "two_magnon_spectroscopy", trace=True, name="traced")
    assert tree_digest(plain["out"]) == tree_digest(traced["out"])
    record = json.loads((tmp_path / "traced" / "trace.json").read_text())
    metrics = per_layer(record, bytes_written=1, overhead_s=0.0)
    assert metrics["model.eigensystem.misses"] == 3
    assert metrics["probes.spectroscopy_two.calls"] == 4  # positive ring momenta at L=8
    assert 0 < metrics["probes.spectroscopy_two.self_s"] < metrics["probes.spectroscopy_two.s"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "phase_map",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
