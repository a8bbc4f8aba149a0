"""Every per-layer metric that BENCHMARK.json declares is produced by a traced run.

The benchmark's tracer reads named functions and caches of the package
from outside and drops a metric whose source is gone, so renaming or
deleting one of them leaves a traced run that still exits cleanly but
lacks declared metrics. This runs each workload's toy-size calls in
process under the tracer and checks the per-layer table against the
declaration. The benchmark's files are loaded from their paths and only
read.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import magnonlab
import magnonlab.cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")
DECLARED = [m["name"] for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_traced_tiny_workload_reports_every_declared_metric(tmp_path, workload):
    call_list = workloads.calls(workload, seed=0, scale="tiny")
    run = tracer.Tracer(magnonlab).install()
    try:
        for call in call_list:
            argv = list(call.argv) + ["--out", str(tmp_path / call.out)]
            assert magnonlab.cli.main(argv) == 0
    finally:
        run.uninstall()
    written = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    metrics = tracer.per_layer(run.record(), bytes_written=written, overhead_s=0.0)
    assert [name for name in DECLARED if name not in metrics] == []
    assert [name for name in DECLARED if not math.isfinite(metrics[name])] == []
    assert metrics["cli.execute.calls"] == len(workloads.experiment_dirs(call_list))
