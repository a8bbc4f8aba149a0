"""Workload definitions: fixed lists of ``magnonlab.cli.main`` calls.

A workload is a list of calls; each call is one ``main(argv)`` with its
own output subdirectory, and names the experiment directories (one per
``manifest.json``) it must leave behind. Runs are closed-loop: one client,
each call starts after the previous one returns.

``scale="tiny"`` gives the same call structure at toy sizes; the smoke
tests use it so that every code path of the benchmark runs in seconds.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    argv: tuple  # CLI arguments without --out
    out: str  # output subdirectory of the run's output root
    experiments: tuple = ("",)  # manifest directories below ``out``


FIG4_DIRS = ("delta0.5_adjacent", "delta0.5_separated",
             "delta4.5_adjacent", "delta4.5_separated")

# (delta, t) grid of the snapshot workload; 1500 snapshots is the CLI default
SAMPLE_GRID = tuple((d, t) for d in (2.0, 4.5) for t in (0.5, 1.0, 2.0, 3.0))

WHY = {
    "two_magnon_spectroscopy":
        "fig1d at L=18: dense sector eigh, Python sector build, FWHT Ising prep "
        "and pair-lowering contraction",
    "pulsed_sweep":
        "figS6 at L=9 with 5 detunings: full-space Floquet steps and dense 512^2 "
        "eigh that overflow the 4-entry pulse cache",
    "phase_map":
        "figS5 grid with --threads 2: 680 complex eigh of dim 150 in "
        "spectral behind a thread pool",
    "snapshot_stats":
        "8 seeded sample runs at L=20 plus reproduce fig4: jackknife, snapshot "
        "files and sector entropies on a dim-190 sector",
}


def _sample_calls(seed, length, n_snapshots, grid):
    return [
        Call(("sample", "--length", str(length), "--delta", repr(d), "--t", repr(t),
              "--n-snapshots", str(n_snapshots), "--postselect-n", "2",
              "--seed", str(seed)),
             f"sample_d{d}_t{t}")
        for d, t in grid
    ]


def calls(workload, seed, scale="full"):
    """The workload's call list for one benchmark seed."""
    tiny = scale == "tiny"
    if workload == "two_magnon_spectroscopy":
        size = ("--length", "8", "--sites", "3,5") if tiny else ("--length", "18")
        return [Call(("dispersion2", *size, "--delta", "3.0", "--measure", "1"),
                     "dispersion2")]
    if workload == "pulsed_sweep":
        size = ("--length", "6", "--n-steps", "16") if tiny else ("--length", "9")
        return [Call(("floquet-bench", *size, "--delta", "3.5", "--n-det", "5"),
                     "floquet")]
    if workload == "phase_map":
        size = ("--length", "40", "--n-k", "6", "--n-delta", "5") if tiny else (
            "--length", "300")
        return [Call(("phase-diagram", *size, "--threads", "2"), "phase")]
    if workload == "snapshot_stats":
        if tiny:
            return _sample_calls(seed, 10, 200, SAMPLE_GRID[:2]) + [
                Call(("entropy", "--length", "10", "--delta", "4.5",
                      "--region-a", "2,3", "--region-b", "7,8"), "entropy")]
        return _sample_calls(seed, 20, 1500, SAMPLE_GRID) + [
            Call(("reproduce", "fig4"), "fig4", FIG4_DIRS)]
    raise KeyError(f"unknown workload {workload!r}")


def experiment_dirs(call_list):
    """Relative manifest directories, in call order."""
    return [f"{c.out}/{e}" if e else c.out for c in call_list for e in c.experiments]
