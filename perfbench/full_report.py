"""One-shot full-size report: every ``reproduce`` preset and the Tier-1 suite.

    python3 perfbench/full_report.py [--out FILE]

Runs each of the seven figure presets once at paper size, each in a fresh
interpreter, then the Tier-1 test command, and writes their wall time, CPU
time and peak memory with the environment fingerprint as JSON. It is not
gated and not repeated: the figures sit beside the benchmark's workloads
for reference and are never compared against a bound. A full report takes
several minutes (figS6 and Tier-1 dominate).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORK_DIR, child_env, remove_work, run_once, wait_child  # noqa: E402
from workloads import Call  # noqa: E402

FIGURES = ("fig1c", "fig1d", "fig2", "fig3", "fig4", "figS5", "figS6")
TIER1_TIMEOUT_S = 3600.0


def tier1(env):
    """Wall time and pytest summary of the Tier-1 command."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.monotonic()
    with open(Path(env["TMPDIR"]) / "tier1.txt", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        rc, usage = wait_child(proc, TIER1_TIMEOUT_S)
    wall = time.monotonic() - start
    tail = (Path(env["TMPDIR"]) / "tier1.txt").read_text().strip().splitlines()
    summary = next((ln for ln in reversed(tail) if re.search(r"\d+ (passed|failed)", ln)),
                   None)
    return {"command": "python -m pytest -q --continue-on-collection-errors",
            "exit_code": rc, "summary": summary, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write")
    args = parser.parse_args(argv)

    work = ROOT / WORK_DIR / f"full-{os.getpid()}"
    env = child_env(work)
    report = {"presets": {}, "fingerprint": None}
    try:
        for fig in FIGURES:
            rep = run_once([Call(("reproduce", fig), fig)], work / fig, env, trace=False)
            result = rep["result"] or {}
            report["presets"][fig] = {
                "ok": bool(result) and all(c["rc"] == 0 for c in result["calls"]),
                "wall_s": result.get("wall_s"),
                "cpu_s": rep["cpu_s"],
                "peak_rss_mib": rep["peak_rss_mib"],
            }
            report["fingerprint"] = report["fingerprint"] or result.get("fingerprint")
            print(f"{fig}: {json.dumps(report['presets'][fig])}", flush=True)
        report["tier1"] = tier1(env)
        print(f"tier1: {json.dumps(report['tier1'])}", flush=True)
    finally:
        remove_work(work)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
