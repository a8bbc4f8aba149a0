"""Record the reference values the benchmark checks artifacts against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload once at ``RECORDED_SEED`` (the CLI's default seed) and
writes ``reference/<workload>.json``: every artifact column, the manifest
notes and content hash, and, for seeded ``sample`` experiments, the exact
Born values of every jackknife estimate. Run it only when the program's
outputs are meant to change, and say so in the change that does it.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import reference_from_run  # noqa: E402
from run import ROOT, WORK_DIR, child_env, remove_work, run_once  # noqa: E402
from workloads import WHY, calls, experiment_dirs  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))  # Born values come from the program itself
RECORDED_SEED = 0


def born_values(config):
    """Exact means and standard errors of every jackknife estimate of a
    ``sample`` config: participation, <P_j> and <P_j P_j+1>.

    Each estimate is the mean of a 0/1 variable over N snapshots, so its
    exact standard error is sqrt(p (1 - p) / N); participation is an affine
    map of the adjacent-pair count, whose error ``error_scale`` carries.
    """
    import numpy as np

    from magnonlab.evolve import exact_evolve
    from magnonlab.model import ModelParams, enumerate_sector, sector_hamiltonian
    from magnonlab.probes import bs_participation, center_pair_state

    if config["postselect_n"] != 2:
        raise ValueError("Born references assume post-selection on the 2-magnon sector")
    params = ModelParams(L=config["length"], alpha=config["alpha"], delta=config["delta"],
                         J=1.0, boundary=config["boundary"])
    n = config["n_snapshots"]
    psi0 = center_pair_state(params, separation=config["separation"])
    psi = exact_evolve(sector_hamiltonian(params, 2), psi0, config["t"])
    prob = np.abs(psi.data) ** 2
    bits = np.zeros((len(prob), params.L), dtype=np.uint8)
    occ = enumerate_sector(params.L, 2).occupations
    bits[np.arange(len(prob))[:, None], occ] = 1
    pairs = bits[:, :-1] & bits[:, 1:]
    pup, pupp = prob @ bits, prob @ pairs
    count = pairs.sum(axis=1)  # adjacent pairs per configuration
    count_var = prob @ count ** 2 - (prob @ count) ** 2
    scale = 1.0 / (1.0 - 2.0 / params.L)  # d participation / d sum_j <P_j P_j+1>
    values = {"participation/0": float(bs_participation(pupp, params.L))}
    errors = {"participation/0": float(scale * np.sqrt(max(count_var, 0.0) / n))}
    for name, means in (("pup", pup), ("pupp", pupp)):
        for j, p in enumerate(means):
            values[f"{name}/{j + 1}"] = float(p)
            errors[f"{name}/{j + 1}"] = float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
    return {"n": n, "values": values, "errors": errors,
            "error_scale": {"participation/0": scale}}


def record(workload, work):
    call_list = calls(workload, RECORDED_SEED)
    rep = run_once(call_list, work / workload, child_env(work), trace=False)
    if rep["result"] is None or any(c["rc"] != 0 for c in rep["result"]["calls"]):
        raise RuntimeError(f"{workload}: run failed, see {rep['log']}")
    ref = reference_from_run(rep["out"], experiment_dirs(call_list), RECORDED_SEED,
                             born=born_values)
    ref["workload"] = workload
    ref["why"] = WHY[workload]
    return ref


def main(names):
    work = ROOT / WORK_DIR / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in names or list(WHY):
            ref = record(workload, work)
            path = HERE / "reference" / f"{workload}.json"
            path.write_text(json.dumps(ref, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        remove_work(work)


if __name__ == "__main__":
    main(sys.argv[1:])
