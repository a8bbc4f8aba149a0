"""magnonlab benchmark: closed-loop CLI workloads in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` directory, never from an installed copy. ``--trace 0``
runs rounds of one workload execution in a fresh process plus one fresh
``import magnonlab.cli`` interpreter, until the next round would end after
``--seconds`` (at least one round), and reports medians of ``wall_s``,
``cpu_s``, ``peak_rss_mib`` and ``setup_s``. ``--trace 1`` runs the
workload untraced, traced and untraced again and reports the per-layer
table. Every run checks every artifact against ``reference/<workload>.json``.
Thread variables are inherited and only recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, ``error_rate`` and the
environment fingerprint.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_run, tree_digest  # noqa: E402
from tracer import per_layer, unit_of  # noqa: E402
from workloads import WHY, calls, experiment_dirs  # noqa: E402

SETUP_PROBES = 2  # before the first round; one more after every round
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def child_env(work):
    """Inherited environment plus ``src/`` on the path and a private TMPDIR."""
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                               else "")
    env["TMPDIR"] = str(work / "tmp")
    return env


def remove_work(work):
    """Delete a run's scratch directory, and its parent once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _reap(proc):
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def wait_child(proc, timeout):
    """(exit code, rusage) of ``proc``; kills it after ``timeout`` seconds.

    The code is None when the child was killed. If this process is
    interrupted or terminated while waiting, the child is killed and reaped
    before the exception propagates.
    """
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                return None, _reap(proc)
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            _reap(proc)
        raise


def measure_setup(env, work, probes, warm=False):
    """Seconds from spawn to ``import magnonlab.cli`` done, per fresh interpreter.

    With ``warm`` one extra, unrecorded interpreter first warms the file cache.
    """
    code = "import time, magnonlab.cli; print(repr(time.monotonic()))"
    times = []
    for i in range(probes + warm):
        start = time.monotonic()
        try:
            out = subprocess.run([sys.executable, "-c", code], env=env, cwd=work,
                                 capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("import magnonlab.cli took over 60 s")
        if out.returncode:
            raise BenchError(f"import magnonlab.cli failed:\n{out.stderr[-2000:]}")
        if i >= warm:
            times.append(float(out.stdout.strip()) - start)
    return times


def run_once(call_list, rep_dir, env, trace):
    """One fresh-process execution of a workload's calls."""
    out_root = rep_dir / "out"
    out_root.mkdir(parents=True)
    argvs = [list(c.argv) + ["--out", str(out_root / c.out)] for c in call_list]
    spec = {"calls": argvs, "trace": trace, "result": str(rep_dir / "result.json")}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(rep_dir / "stdout.txt", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                env=env, cwd=rep_dir, stdout=log, stderr=subprocess.STDOUT)
        rc, usage = wait_child(proc, CHILD_TIMEOUT_S)
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text()) if rc == 0 and result_path.is_file() else None
    return {
        "rc": rc, "result": result, "out": out_root,
        "setup_s": result["setup_done"] - spawned if result else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "log": rep_dir / "stdout.txt",
    }


def verify(rep, reference, call_list, seed):
    """Check one execution; returns (attempted, failed, hash matches, messages)."""
    results = check_run(rep["out"], reference, seed)
    messages, broken = [], set()
    if rep["result"] is None:
        broken = {rel for rel, *_ in results}
        messages.append(f"child exited with {rep['rc']}:\n"
                        + rep["log"].read_text()[-2000:])
    else:
        module = Path(rep["result"]["module"]).resolve()
        if ROOT / "src" not in module.parents:
            broken = {rel for rel, *_ in results}
            messages.append(f"magnonlab imported from {module}, not {ROOT / 'src'}")
        for call, outcome in zip(call_list, rep["result"]["calls"]):
            if outcome["rc"] != 0:
                broken |= set(experiment_dirs([call]))
                messages.append(f"call {' '.join(outcome['argv'])} -> rc {outcome['rc']}"
                                f"\n{outcome['error'] or ''}")
    failed = 0
    for rel, ok, msg, _ in results:
        if not ok:
            messages.append(f"{rel}: {msg}")
        failed += not ok or rel in broken
    matched = sum(1 for r in results if r[3])
    return len(results), failed, matched, messages


def timed_run(call_list, seed, seconds, reference, work, env):
    """Rounds of (workload execution, set-up probe) until ``seconds`` is spent.

    Set-up samples are spread over the run, so that their median samples
    the same stretch of time as the workload: two probes before the first
    round, then per round the execution's own start-up and one probe.
    """
    start = time.monotonic()
    setup = measure_setup(env, work, SETUP_PROBES, warm=True)
    reps, attempted, failed, matched, messages = [], 0, 0, 0, []
    while True:
        round_start = time.monotonic()
        rep = run_once(call_list, work / f"rep{len(reps)}", env, trace=False)
        a, f, m, msgs = verify(rep, reference, call_list, seed)
        attempted, failed, matched = attempted + a, failed + f, matched + m
        messages += msgs
        reps.append(rep)
        shutil.rmtree(rep["out"])
        setup += [rep["setup_s"]] if rep["result"] else []
        setup += measure_setup(env, work, 1)
        now = time.monotonic()
        if rep["result"] is None or (now - start) + (now - round_start) > seconds:
            break
    walls = [r["result"]["wall_s"] for r in reps if r["result"]]
    metrics = {
        "wall_s": (statistics.median(walls) if walls else None, "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "reps": len(reps),
        "wall_s": walls,
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "setup_s": setup,
    }
    fp = next((r["result"]["fingerprint"] for r in reps if r["result"]), None)
    return metrics, attempted, failed, matched, messages, detail, fp


def traced_run(call_list, seed, reference, work, env):
    """Untraced, traced, untraced: the first execution of a run is slower than
    later ones, so the overhead compares the traced one with the last."""
    reps = [run_once(call_list, work / name, env, trace=name == "traced")
            for name in ("warm", "traced", "plain")]
    attempted, failed, matched, messages = 0, 0, 0, []
    for rep in reps:
        a, f, m, msgs = verify(rep, reference, call_list, seed)
        attempted, failed, matched = attempted + a, failed + f, matched + m
        messages += msgs
    metrics = {}
    warm, traced, plain = reps
    if all(r["result"] for r in reps):
        if not tree_digest(warm["out"]) == tree_digest(traced["out"]) == tree_digest(
                plain["out"]):
            failed += 1
            messages.append("traced artifacts differ from untraced ones")
        record = json.loads((work / "traced" / "trace.json").read_text())
        written = sum(p.stat().st_size for p in traced["out"].rglob("*") if p.is_file())
        overhead = traced["result"]["wall_s"] - plain["result"]["wall_s"]
        layer = per_layer(record, bytes_written=written, overhead_s=overhead)
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    detail = {"wall_s": [r["result"]["wall_s"] for r in reps if r["result"]]}
    fp = next((r["result"]["fingerprint"] for r in reps if r["result"]), None)
    return metrics, attempted, failed, matched, messages, detail, fp


def declared_per_layer():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return []
    return [m["name"] for m in bench.get("per_layer", [])]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "magnonlab" / "cli.py").is_file():
        raise BenchError(f"no magnonlab sources under {ROOT / 'src'}")
    ref_path = HERE / "reference" / f"{args.workload}.json"
    if not ref_path.is_file():
        raise BenchError(f"no reference values at {ref_path}")
    reference = json.loads(ref_path.read_text())
    call_list = calls(args.workload, args.seed)
    if sorted(reference["experiments"]) != sorted(experiment_dirs(call_list)):
        raise BenchError(f"{ref_path.name} does not list this workload's experiments")
    work = ROOT / WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(work)
    try:
        if args.trace:
            out = traced_run(call_list, args.seed, reference, work, env)
        else:
            out = timed_run(call_list, args.seed, args.seconds, reference, work, env)
    finally:
        remove_work(work)
    metrics, attempted, failed, matched, messages, detail, fp = out
    for msg in messages:
        print(f"check: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} experiments attempted, {failed} failed, "
          f"content_hash matched {matched}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r:>24} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted if attempted else 1.0!r:>24} fraction")
    absent = [n for n in declared_per_layer() if n not in metrics] if args.trace else []
    if absent:
        print(f"absent per-layer metrics: {', '.join(absent)}")
    print(f"samples {json.dumps(detail)}")
    print(f"fingerprint {json.dumps(fp)}")
    correct = attempted > 0 and failed == 0 and all(v is not None for v, _ in
                                                    metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if v is not None},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
