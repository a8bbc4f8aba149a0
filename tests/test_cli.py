import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from magnonlab import cli, spectral
from magnonlab.cli import main, read_config_file, resolve_config
from magnonlab.entropy import config_mutual_proxy_exact
from magnonlab.evolve import PULSE_MAX_L, _pulse_eigensystem, exact_evolve
from magnonlab.model import ModelParams, sector_hamiltonian, vacuum_energy
from magnonlab.probes import _cached_sector, bs_participation, center_pair_state
from magnonlab.spectral import dispersion_one, group_velocity_one


def load_csv(path):
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    n_meta = 0
    for line in lines:
        if not line.startswith("#"):
            break
        n_meta += 1
        key, val = line[1:].split("=", 1)
        meta[key.strip()] = val.strip()
    names = lines[n_meta].split(",")
    rows = [line.split(",") for line in lines[n_meta + 1:]]
    return meta, names, rows


def manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_no_arguments_prints_usage_and_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig99"])
    assert exc.value.code == 2


def test_unknown_config_key_is_diagnosed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length = 8\nbogus = 1\n")
    code = main(["quench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_syntax_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlength = 8\ndelta = 1.0  # inline comment\nn_times = 4\nt_max = 1.0\n")
    parsed = read_config_file(cfg)
    assert parsed == {"length": "8", "delta": "1.0", "n_times": "4", "t_max": "1.0"}
    out = tmp_path / "o"
    assert main(["quench", "--config", str(cfg), "--delta", "3.0",
                 "--out", str(out)]) == 0
    echo = manifest(out)["config"]
    assert echo["delta"] == 3.0  # CLI flag beat the file
    assert echo["length"] == 8  # file beat the default


def test_seconds_convert_at_ingest(tmp_path):
    out = tmp_path / "o"
    assert main(["quench", "--length", "8", "--n-times", "4",
                 "--t-max-s", "0.01", "--coupling", "369",
                 "--out", str(out)]) == 0
    assert manifest(out)["config"]["t_max"] == pytest.approx(3.69)


def test_zero_seconds_convert_to_time_zero(tmp_path):
    # the seconds twins default to unset, so an explicit 0 s is not ignored
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--coupling", "369", "--t-s", "0",
                 "--out", str(out)]) == 0
    assert manifest(out)["config"]["t"] == 0.0
    cfg = resolve_config("participation", {"t_eval_s": "0"},
                         {"coupling": "369", "compare_t_s": "0"})
    assert cfg["t_eval"] == 0.0 and cfg["compare_t"] == 0.0


def test_seconds_without_coupling_rejected(tmp_path, capsys):
    code = main(["quench", "--t-max-s", "0.01", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "coupling" in capsys.readouterr().err


def test_dispersion1_matches_series(tmp_path):
    out = tmp_path / "o"
    assert main(["dispersion1", "--length", "12", "--out", str(out)]) == 0
    meta, names, rows = load_csv(out / "dispersion1.csv")
    assert meta["boundary"] == "open"
    assert names == ["index", "k", "energy", "velocity"]
    p = ModelParams(L=12, alpha=1.4)
    for row in rows:
        k, energy = float(row[1]), float(row[2])
        assert energy == pytest.approx(dispersion_one(k, p), abs=1e-12)


@pytest.mark.parametrize("L", [10, 11])
def test_dispersion1_ring_writes_the_ring_sector_energies(L, tmp_path):
    # it once wrote the infinite-chain series at the ring momenta: 0.852,
    # -0.074, -0.614 at L=10 where the ring sector holds 0.921, -0.099, -0.600
    out = tmp_path / "o"
    assert main(["dispersion1", "--boundary", "ring", "--length", str(L), "--delta", "0.7",
                 "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "dispersion1.csv")
    k, energy, velocity = (np.array([float(r[names.index(c)]) for r in rows])
                           for c in ("k", "energy", "velocity"))
    p = ModelParams(L=L, alpha=1.4, delta=0.7, boundary="ring")
    evals = np.linalg.eigvalsh(sector_hamiltonian(p, 1).dense()) - vacuum_energy(p)
    # the written momenta m = 1 .. L/2 and their twins L - m are every level
    # but the top one, k = 0
    levels = np.sort(np.concatenate([energy, energy[:(L - 1) // 2]]))
    assert np.abs(levels - np.sort(evals)[:-1]).max() <= 1e-12
    h, inner = 1e-6, k < np.pi  # the ring sum is even about k = pi
    slope = (dispersion_one(k[inner] + h, p, mode="ring")
             - dispersion_one(k[inner] - h, p, mode="ring")) / (2 * h)
    assert np.allclose(velocity[inner], slope, rtol=1e-6, atol=1e-8)
    assert np.abs(velocity[~inner]).max(initial=0.0) <= 1e-12
    assert np.abs(velocity - group_velocity_one(k, p)).max() > 0.1  # not the series


def test_dispersion1_measure_needs_open_chain(tmp_path, capsys, monkeypatch):
    # rejected before the polylog series, about 0.7 s of mpmath at L=20
    def series_must_not_run(*args, **kwargs):
        raise AssertionError("the dispersion series ran")

    monkeypatch.setattr(cli, "dispersion_one", series_must_not_run)
    monkeypatch.setattr(cli, "group_velocity_one", series_must_not_run)
    code = main(["dispersion1", "--boundary", "ring", "--measure", "1",
                 "--length", "12", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "open" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dispersion2_bound_flag_consistent(tmp_path):
    out = tmp_path / "o"
    assert main(["dispersion2", "--length", "12", "--delta", "3.0",
                 "--out", str(out)]) == 0
    meta, names, rows = load_csv(out / "dispersion2.csv")
    n_bound = manifest(out)["notes"]["n_bound"]
    threshold = 5.0 / (12 - 1)
    flags = [int(r[names.index("bound")]) for r in rows]
    l4 = [float(r[names.index("l4")]) for r in rows]
    assert flags == [int(v > threshold) for v in l4]
    assert sum(flags) == n_bound > 0


def test_quench_artifacts_are_consistent(tmp_path):
    out = tmp_path / "o"
    assert main(["quench", "--length", "10", "--delta", "3.5",
                 "--t-max", "2.0", "--n-times", "9", "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "quench_site.csv")
    sums = [sum(float(v) for v in r[1:]) for r in rows]
    assert np.allclose(sums, 2.0, atol=1e-9)  # two magnons on every slice
    _, _, pair_rows = load_csv(out / "quench_pair.csv")
    _, _, part_rows = load_csv(out / "participation.csv")
    profile = np.array([float(v) for v in pair_rows[3][1:]])
    assert float(part_rows[3][1]) == pytest.approx(
        bs_participation(profile, 10), abs=1e-12)
    notes = manifest(out)["notes"]
    assert notes["front_pair"]["residual"] < 0.5
    assert notes["front_pair"]["velocity"] > 0


def test_participation_notes_steepest_slope(tmp_path):
    out = tmp_path / "o"
    assert main(["participation", "--length", "10", "--n-delta", "5",
                 "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "participation.csv")
    vals = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert 0.5 <= manifest(out)["notes"]["steepest_slope_delta"] <= 3.5


def test_floquet_bench_symmetry_and_widths(tmp_path):
    out = tmp_path / "o"
    assert main(["floquet-bench", "--length", "4", "--delta", "3.5",
                 "--t-eff", "0.8", "--n-steps", "16", "--det-max", "0.8",
                 "--n-det", "5", "--threads", "2", "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "floquet_bench.csv")
    assert names == ["detuning", "fidelity_dd", "fidelity_plain"]
    mid = rows[len(rows) // 2]
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(float(mid[2]), abs=1e-12)
    notes = manifest(out)["notes"]
    assert notes["width_dd_at_0.8"] >= notes["width_plain_at_0.8"]


@pytest.mark.parametrize("det_max, clipped", [("0.8", True), ("40.0", False)])
def test_floquet_bench_flags_a_width_clipped_by_the_grid(det_max, clipped, tmp_path):
    # dd stays above 0.8 out to +-0.8 here, so that width is only a lower bound
    out = tmp_path / "o"
    assert main(["floquet-bench", "--length", "4", "--delta", "3.5",
                 "--t-eff", "0.8", "--n-steps", "16", "--det-max", det_max,
                 "--n-det", "5", "--out", str(out)]) == 0
    _, _, rows = load_csv(out / "floquet_bench.csv")
    dd = [float(r[1]) for r in rows]
    assert (min(dd) >= 0.8) is clipped
    notes = manifest(out)["notes"]
    assert notes["width_dd_at_0.8_clipped"] is clipped
    if clipped:
        assert notes["width_dd_at_0.8"] == 2 * float(det_max)
    assert notes["width_plain_at_0.8_clipped"] is (min(float(r[2]) for r in rows) >= 0.8)


def test_floquet_bench_rejects_a_negative_det_max(tmp_path, capsys):
    # a non-finite det_max once failed only after diagonalizing
    for det_max in ("-0.8", "nan", "inf"):
        out = tmp_path / det_max
        assert main(["floquet-bench", "--length", "4", "--n-steps", "16", "--t-eff", "0.8",
                     "--delta", "3.5", "--det-max", det_max, "--n-det", "5",
                     "--out", str(out)]) == 2
        assert ("config error: 'det_max' must be at least 0 and finite"
                in capsys.readouterr().err)
        assert files_under(out) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_floquet_bench_diagonalizes_once_per_detuning(threads, tmp_path):
    # the sweep reads each detuning magnitude's eigensystem once, for both
    # signs and both sequences: five detunings, three magnitudes
    _pulse_eigensystem.cache_clear()
    assert main(["floquet-bench", "--length", "4", "--n-steps", "8",
                 "--n-det", "5", "--threads", threads,
                 "--out", str(tmp_path / "o")]) == 0
    info = _pulse_eigensystem.cache_info()
    assert (info.misses, info.hits) == (3, 0)


@pytest.mark.parametrize("n_det", ["5", "1"])
def test_floquet_bench_runs_a_zero_grid_on_one_eigensystem(n_det, tmp_path):
    out = tmp_path / "o"
    _pulse_eigensystem.cache_clear()
    assert main(["floquet-bench", "--length", "5", "--n-steps", "13", "--n-det", n_det,
                 "--det-max", "0", "--out", str(out)]) == 0
    info = _pulse_eigensystem.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    _, _, rows = load_csv(out / "floquet_bench.csv")
    assert [r[0] for r in rows] == ["0.0"] * int(n_det)
    # dd and plain differ only in the detuning they leave behind
    dd, plain = (np.array([float(r[k]) for r in rows]) for k in (1, 2))
    assert np.ptp(dd) <= 1e-12 and np.abs(dd - plain).max() <= 1e-12
    assert 0 < dd[0] < 1


def files_under(path):
    return [f for f in path.rglob("*") if f.is_file()]


@pytest.mark.parametrize("n_det, det_max", [("4", "2.0"), ("0", "2.0"),
                                            ("1", "2.0"), ("-1", "0.0")])
def test_floquet_bench_needs_zero_detuning_at_the_middle(n_det, det_max, tmp_path,
                                                         capsys):
    # the notes read fidelity_dd_zero and the widths at the middle grid point
    out = tmp_path / "o"
    assert main(["floquet-bench", "--length", "4", "--n-steps", "8",
                 "--n-det", n_det, "--det-max", det_max, "--out", str(out)]) == 2
    assert "config error: 'n_det' must be odd" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("args, key", [
    # each once died with a traceback or wrote outputs of a meaningless window
    (["dispersion1", "--measure", "1", "--t-max", "0"], "t_max"),
    (["dispersion2", "--measure", "1", "--t-max", "0"], "t_max"),
    (["dispersion2", "--t-max", "-1"], "t_max"),
    (["dispersion2", "--measure", "1", "--t-max", "nan"], "t_max"),
    (["quench", "--t-max", "-2"], "t_max"),
    (["quench", "--t-max", "inf"], "t_max"),
    (["entropy", "--t-max", "-1"], "t_max"),
    (["floquet-bench", "--t-eff", "0"], "t_eff"),
    # checked after the seconds twin is converted
    (["quench", "--t-max-s", "-0.01", "--coupling", "369"], "t_max"),
    (["floquet-bench", "--t-eff-s", "nan", "--coupling", "369"], "t_eff"),
    # 0 s is a value given, not the unset default
    (["quench", "--t-max-s", "0", "--coupling", "369"], "t_max"),
    (["floquet-bench", "--t-eff-s", "0", "--coupling", "369"], "t_eff"),
])
def test_time_window_must_be_finite_and_positive(args, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(args + ["--length", "8", "--out", str(out)]) == 2
    assert f"config error: '{key}' must be finite and positive" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("args, key", [
    (["phase-diagram", "--length", "20", "--n-k", "0"], "n_k"),
    (["phase-diagram", "--length", "20", "--n-delta", "0"], "n_delta"),
    (["participation", "--length", "8", "--n-delta", "1"], "n_delta"),
    (["quench", "--length", "8", "--n-times", "0"], "n_times"),
    (["entropy", "--length", "10", "--n-times", "0"], "n_times"),
    (["sample", "--length", "8", "--n-snapshots", "-5"], "n_snapshots"),
    (["sample", "--length", "8", "--n-snapshots", "1"], "n_snapshots"),
    # once failed inside the pulse loop with exit 1
    (["floquet-bench", "--length", "6", "--n-steps", "0"], "n_steps"),
])
def test_grid_count_without_a_grid_is_a_config_error(args, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 2
    assert f"config error: '{key}' must be at least" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("args, key", [
    # each once reached the numerics and failed there with exit 1
    (["phase-diagram", "--length", "20", "--delta-max", "nan"], "delta_max"),
    (["participation", "--length", "8", "--delta-max", "nan"], "delta_max"),
    (["sample", "--length", "8", "--t", "nan"], "t"),
    (["participation", "--length", "8", "--t-eval", "nan"], "t_eval"),
])
def test_non_finite_value_is_a_config_error(args, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 2
    assert f"config error: '{key}' must be finite" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("sites", ["8", "3,5,7", "5,3", "0,3", "3,10"])
def test_dispersion2_sites_must_be_a_window_in_the_chain(sites, tmp_path, capsys):
    # one or three values once died on a Python unpacking error with exit 1
    out = tmp_path / "o"
    assert main(["dispersion2", "--length", "10", "--measure", "1", "--sites", sites,
                 "--out", str(out)]) == 2
    assert ("config error: 'sites' must be lo,hi with 1 <= lo <= hi < 10"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # the sampled state holds two magnons, so these once evolved, sampled and
    # then failed with exit 1 on an empty snapshot set
    (["sample", "--postselect-n", "3"], "'postselect_n' must be -1 (off) or 2, got 3"),
    (["sample", "--postselect-n", "30"], "'postselect_n' must be -1 (off) or 2, got 30"),
    # the second magnon at site 29 of 20
    (["sample", "--separation", "19"], "'separation' must be at most 10 at L=20"),
    (["entropy", "--separation", "19"], "'separation' must be at most 10 at L=20"),
    (["quench", "--separation", "19"], "'separation' must be at most 10 at L=20"),
])
def test_run_that_could_not_succeed_is_a_config_error_before_the_run(args, message,
                                                                     monkeypatch, tmp_path,
                                                                     capsys):
    def evolution_must_not_run(*args, **kwargs):
        raise AssertionError("the state was evolved")

    for name in ("propagate", "exact_evolve", "quench_projectors"):
        monkeypatch.setattr(cli, name, evolution_must_not_run)
    out = tmp_path / "o"
    assert main(args + ["--length", "20", "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_separation_runs(tmp_path):
    # separation 10 at L=20 puts the magnons on sites 10 and 20
    out = tmp_path / "o"
    assert main(["sample", "--length", "20", "--separation", "10", "--t", "0.0",
                 "--n-snapshots", "20", "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "estimates.csv")
    pup = {int(r[1]): float(r[2]) for r in rows if r[0] == "pup"}
    assert [site for site, value in pup.items() if value == 1.0] == [10, 20]


def test_postselect_below_minus_one_is_a_config_error(tmp_path, capsys):
    # it once ran with post-selection silently off
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--postselect-n", "-5", "--out", str(out)]) == 2
    assert ("config error: 'postselect_n' must be -1 (off) or 2, got -5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    # each once died in a FileNotFoundError or IsADirectoryError traceback, or
    # exited 1 on a decoding error that did not name the file
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe length = 8\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        out = tmp_path / "o"
        assert main(["quench", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err
        assert not out.exists()


def test_reproduce_rejects_a_config_file(tmp_path, capsys):
    # it once ran every preset and ignored the file
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig1c", "--config", str(tmp_path / "run.cfg"),
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_sample_at_time_zero_is_allowed(tmp_path):
    assert main(["sample", "--length", "8", "--t", "0", "--n-snapshots", "20",
                 "--out", str(tmp_path / "o")]) == 0


def test_participation_needs_a_grid_of_distinct_deltas(tmp_path, capsys):
    # equal ends once gave 0/0 slopes and a steepest_slope_delta read off NaN
    out = tmp_path / "o"
    assert main(["participation", "--length", "8", "--delta-min", "1",
                 "--delta-max", "1", "--n-delta", "3", "--out", str(out)]) == 2
    assert "config error: 'delta_max' must exceed 'delta_min'" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("compare_length", ["1", "2", "-4"])
def test_participation_too_short_compare_chain_is_a_config_error_before_the_run(
        compare_length, monkeypatch, tmp_path, capsys):
    # each once exited 1 after the whole main curve had run
    def curve_must_not_run(*args, **kwargs):
        raise AssertionError("the crossover curve ran")

    monkeypatch.setattr(cli, "participation_crossover", curve_must_not_run)
    out = tmp_path / "o"
    assert main(["participation", "--length", "8", "--compare-length", compare_length,
                 "--out", str(out)]) == 2
    assert (f"config error: 'compare_length' must be 0 (off) or at least 3, got "
            f"{compare_length}: at L = 2 every pair is adjacent, so the participation is "
            f"undefined" in capsys.readouterr().err)
    assert files_under(out) == []


def test_phase_diagram_onset_is_the_smallest_bound_delta(tmp_path):
    # the onset once read the first bound column of the grid: 3.0 on the
    # descending grid below, 2.0 on the same points ascending
    onsets = []
    for lo, hi in (("3", "1"), ("1", "3")):
        out = tmp_path / lo
        assert main(["phase-diagram", "--length", "20", "--delta-min", lo,
                     "--delta-max", hi, "--n-delta", "3", "--out", str(out)]) == 0
        onsets.append(manifest(out)["notes"]["onset_delta"])
    assert onsets == [2.0, 2.0]


def fake_blas(monkeypatch):
    """One fake OpenBLAS at 4 threads in place of every loaded one:
    (count, history of the counts set)."""
    count, history = [4], []

    def put(n):
        count[0] = n
        history.append(n)

    monkeypatch.setattr(spectral, "_openblas_thread_controls",
                        lambda: [("fake", lambda: count[0], put)])
    return count, history


def record_blas_stages(monkeypatch, count):
    """{stage: [count at each call]} for every eigh and the floquet-bench stages."""
    seen = {}

    def recording(name, f):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append(count[0])
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
    for name in ("center_pair_state", "exact_evolve", "floquet_sweep", "write_csv",
                 "write_manifest"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return seen


FLOQUET_SMALL = ["floquet-bench", "--length", "6", "--n-steps", "16", "--n-det", "3"]


def test_cli_runs_every_blas_stage_on_one_thread_and_restores_the_count(
        monkeypatch, tmp_path):
    count, history = fake_blas(monkeypatch)
    seen = record_blas_stages(monkeypatch, count)
    _pulse_eigensystem.cache_clear()  # so the sweep diagonalizes here
    _cached_sector.cache_clear()  # and so does the reference sector
    assert main(FLOQUET_SMALL + ["--out", str(tmp_path / "o")]) == 0
    # L=6: sector blocks of 9 and 6, pulse blocks of 20, 12, 16 and 16 for
    # each of the two detuning magnitudes
    assert len(seen["eigh"]) == 2 + 2 * 4
    assert set(seen) == {"eigh", "center_pair_state", "exact_evolve", "floquet_sweep",
                         "write_csv", "write_manifest"}
    assert all(counts == [1] * len(counts) for counts in seen.values())
    assert history == [1, 4] and count == [4]
    # a schema error and a failure in the numerics restore it too
    for args, code in ((["--n-steps", "0"], 2), (["--length", "13"], 1)):
        history.clear()
        assert main(FLOQUET_SMALL + args + ["--out", str(tmp_path / "bad")]) == code
        assert history == [1, 4] and count == [4]


def test_cli_gives_the_threads_back_to_blocks_at_the_threshold(monkeypatch, tmp_path):
    # the pulse blocks (up to 20) reach a threshold lowered to 10, the
    # propagated sector's (9) does not
    monkeypatch.setattr(spectral, "ONE_THREAD_BELOW_DIM", 10)
    count, history = fake_blas(monkeypatch)
    seen = record_blas_stages(monkeypatch, count)
    _pulse_eigensystem.cache_clear()
    _cached_sector.cache_clear()
    assert main(FLOQUET_SMALL + ["--out", str(tmp_path / "o")]) == 0
    assert seen["eigh"] == [1] * 2 + [4] * 2 * 4
    assert seen["floquet_sweep"] == [1]  # entered at one thread, gives back inside
    assert history == [1, 4, 1, 4] and count == [4]


def test_entropy_columns_match_direct_evaluation(tmp_path):
    out = tmp_path / "o"
    assert main(["entropy", "--length", "10", "--delta", "4.5",
                 "--region-a", "2,3,4", "--region-b", "7,8,9",
                 "--t-max", "2.0", "--n-times", "3", "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "entropy.csv")
    p = ModelParams(L=10, alpha=1.4, delta=4.5)
    psi = exact_evolve(sector_hamiltonian(p, 2), center_pair_state(p), 1.0)
    est = config_mutual_proxy_exact(psi, (2, 3, 4), (7, 8, 9))
    row = rows[1]  # t = 1.0
    assert float(row[names.index("proxy")]) == pytest.approx(est.value, abs=1e-12)
    assert float(row[names.index("proxy_config_only")]) == pytest.approx(
        est.config_only, abs=1e-12)


@pytest.mark.parametrize("region_b,message", [("5,6", "regions overlap: [5]"),
                                              ("9,11", "outside chain 1..10")],
                         ids=["overlap", "outside"])
def test_entropy_bad_regions_are_a_config_error_before_the_run(region_b, message, monkeypatch,
                                                               tmp_path, capsys):
    # checked by the rule region_entropies applies, before any propagation
    def propagation_must_not_run(*args, **kwargs):
        raise AssertionError("the state was propagated")

    monkeypatch.setattr(cli, "propagate", propagation_must_not_run)
    code = main(["entropy", "--length", "10", "--region-a", "3,4,5",
                 "--region-b", region_b, "--n-times", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["sample", "quench"])
def test_participation_at_two_sites_is_an_error(experiment, tmp_path, capsys):
    # rejected before the run; the estimator keeps its own check for other callers
    code = main([experiment, "--length", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and f"{experiment} needs L >= 3" in err and "participation" in err
    with pytest.raises(ValueError, match="participation needs L >= 3"):
        bs_participation(np.ones(2), 2)


@pytest.mark.parametrize("experiment",
                         ["dispersion2", "participation", "phase-diagram", "quench", "sample"])
def test_too_short_chain_is_a_config_error_before_the_run(experiment, monkeypatch,
                                                          tmp_path, capsys):
    # unchecked, dispersion2 and phase-diagram die in the ring curve (the
    # block at k = pi is empty), participation and quench after their whole
    # computation and sample after drawing and staging its snapshots, all
    # with exit 1
    def runner_must_not_start(*args):
        raise AssertionError("the runner started")

    monkeypatch.setitem(cli.EXPERIMENTS, experiment, runner_must_not_start)
    code = main([experiment, "--length", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "needs L >= 3, got L=2" in err
    assert not (tmp_path / "o").exists()


def sample_failing_late(monkeypatch):
    """A sample run that fails in its runner after staging snapshots.txt,
    which comes before the estimates."""
    def fails(*args):
        raise ValueError("estimates failed")

    monkeypatch.setattr(cli, "jackknife", fails)
    return ["sample", "--length", "8"]


def quench_failing_late(monkeypatch):
    """A quench run that fails in its runner after staging its two map CSVs,
    which come before the participation."""
    def fails(*args):
        raise ValueError("participation failed")

    monkeypatch.setattr(cli, "bs_participation", fails)
    return ["quench", "--length", "8", "--n-times", "5"]


@pytest.mark.parametrize("experiment", ["sample", "quench"])
def test_failed_run_removes_only_its_own_files(experiment, monkeypatch, tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    argv = (sample_failing_late if experiment == "sample" else quench_failing_late)(monkeypatch)
    assert main(argv + ["--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


def test_failed_run_removes_the_directories_it_made(tmp_path, capsys):
    # the grid check runs inside the runner, which writes to a staging
    # directory, so a failed run creates no directory under --out
    top = tmp_path / "X"
    code = main(["phase-diagram", "--length", "20", "--delta-max", "nan",
                 "--out", str(top / "run")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (top / "run").exists()
    assert not top.exists()


def tree_bytes(path):
    return {f.relative_to(path): f.read_bytes() for f in files_under(path)}


def test_failed_rerun_leaves_the_earlier_run_intact(monkeypatch, tmp_path):
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--out", str(out)]) == 0
    before = tree_bytes(out)
    assert sorted(map(str, before)) == ["estimates.csv", "manifest.json", "snapshots.txt"]
    # the failed run wrote its snapshots.txt before its estimates failed
    assert main(sample_failing_late(monkeypatch) + ["--out", str(out)]) == 1
    assert tree_bytes(out) == before


def test_sample_on_a_sector_cached_by_fig4_matches_a_fresh_sector(tmp_path):
    # fig4 leaves the L=20, Delta=4.5 sector cached with its eigensystem
    args = ["sample", "--length", "20", "--delta", "4.5", "--t", "1.0",
            "--n-snapshots", "300"]
    assert main(["reproduce", "fig4", "--out", str(tmp_path / "fig4")]) == 0
    hits = _cached_sector.cache_info().hits
    assert main(args + ["--out", str(tmp_path / "cached")]) == 0
    assert _cached_sector.cache_info().hits == hits + 1
    _cached_sector.cache_clear()
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    cached, fresh = tmp_path / "cached", tmp_path / "fresh"
    for name in ("snapshots.txt", "estimates.csv"):
        assert (cached / name).read_bytes() == (fresh / name).read_bytes()
    assert manifest(cached)["content_hash"] == manifest(fresh)["content_hash"]


def test_entropy_after_a_long_window_on_its_sector_matches_a_fresh_run(tmp_path):
    # a fresh entropy run at L=50 takes the Chebyshev series; the long quench
    # window then diagonalizes the shared sector, which must not move the
    # next entropy run onto the dense blocks
    chain = ["--length", "50", "--delta", "3"]
    _cached_sector.cache_clear()
    assert main(["entropy"] + chain + ["--out", str(tmp_path / "fresh")]) == 0
    sector = _cached_sector(ModelParams(L=50, alpha=1.4, delta=3.0), 2)
    assert sector._eig is None
    assert main(["quench"] + chain + ["--t-max", "100", "--n-times", "8",
                                      "--out", str(tmp_path / "quench")]) == 0
    assert sector._eig is not None
    assert main(["entropy"] + chain + ["--out", str(tmp_path / "cached")]) == 0
    cached, fresh = tmp_path / "cached", tmp_path / "fresh"
    assert (cached / "entropy.csv").read_bytes() == (fresh / "entropy.csv").read_bytes()
    assert manifest(cached)["content_hash"] == manifest(fresh)["content_hash"]


def test_rerun_in_place_matches_a_fresh_run(tmp_path):
    args = ["sample", "--length", "8", "--n-snapshots", "150", "--seed", "3"]
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    assert main(args + ["--out", str(fresh)]) == 0
    assert main(["sample", "--length", "9", "--out", str(rerun)]) == 0
    for _ in range(2):  # over a different run, then over itself
        assert main(args + ["--out", str(rerun)]) == 0
        for name in ("snapshots.txt", "estimates.csv"):
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes()
        assert manifest(rerun)["content_hash"] == manifest(fresh)["content_hash"]
        assert manifest(rerun)["artifacts"] == manifest(fresh)["artifacts"]


def test_publish_replaces_the_manifest_first_and_last(monkeypatch, tmp_path):
    # no manifest is on disk while the artifacts move, and the new one moves last
    out = tmp_path / "o"
    assert main(["quench", "--length", "6", "--n-times", "3", "--out", str(out)]) == 0
    moves, move = [], cli.shutil.move

    def recording(src, dst):
        moves.append((Path(dst).name, (out / "manifest.json").exists()))
        return move(src, dst)

    monkeypatch.setattr(cli.shutil, "move", recording)
    assert main(["quench", "--length", "7", "--n-times", "3", "--out", str(out)]) == 0
    assert moves[-1] == ("manifest.json", False)
    assert sorted(moves[:-1]) == [(name, False) for name in sorted(manifest(out)["artifacts"])]


def test_run_refuses_an_out_with_a_directory_named_like_an_artifact(tmp_path, capsys):
    # the file would be moved into that directory and the run reported done
    out = tmp_path / "o"
    (out / "estimates.csv").mkdir(parents=True)
    assert main(["sample", "--length", "8", "--n-snapshots", "20", "--out", str(out)]) == 2
    assert "holds directories named ['estimates.csv']" in capsys.readouterr().err
    assert [p.name for p in out.rglob("*")] == ["estimates.csv"]


@pytest.mark.parametrize("argv, out", [
    (["sample", "--length", "8", "--n-snapshots", "20"], "."),
    (["sample", "--length", "8", "--n-snapshots", "20"], "o/p"),
    (["reproduce", "fig4"], "."),
])
def test_out_on_an_existing_file_is_a_config_error_before_any_run(
        monkeypatch, tmp_path, capsys, argv, out):
    # the run used to compute everything and then die in mkdir with a
    # FileExistsError traceback
    blocker = tmp_path / "f"
    blocker.write_text("keep\n")
    runs = []
    monkeypatch.setattr(cli, "_execute", lambda *args: runs.append(args))
    assert main([*argv, "--out", str(blocker / out)]) == 2
    assert f"{blocker} exists and is not a directory" in capsys.readouterr().err
    assert runs == []
    assert blocker.read_text() == "keep\n"


def test_interrupted_run_leaves_out_unchanged_and_no_staging(monkeypatch, tmp_path):
    staging_root = tmp_path / "tmp"
    staging_root.mkdir()
    monkeypatch.setattr(cli.tempfile, "tempdir", str(staging_root))
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--n-snapshots", "20", "--out", str(out)]) == 0
    before = tree_bytes(out)

    def interrupted(cfg, outdir, seed):
        (outdir / "estimates.csv").write_text("partial\n")
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.EXPERIMENTS, "sample", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sample", "--length", "8", "--out", str(out)])
    with pytest.raises(KeyboardInterrupt):
        main(["sample", "--length", "8", "--out", str(tmp_path / "new" / "o")])
    assert tree_bytes(out) == before
    assert not (tmp_path / "new").exists()
    assert list(staging_root.iterdir()) == []


def test_failed_run_keeps_a_manifest_that_still_holds(monkeypatch, tmp_path):
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--out", str(out)]) == 0
    before = manifest(out)
    assert main(quench_failing_late(monkeypatch) + ["--out", str(out)]) == 1
    assert manifest(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", *before["artifacts"]])


def test_phase_diagram_ignores_threads(tmp_path):
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["phase-diagram", "--length", "40", "--n-k", "6", "--n-delta", "5",
                     "--threads", threads, "--out", str(out)]) == 0
        hashes.append(manifest(out)["content_hash"])
    assert hashes[0] == hashes[1]


def test_sample_reruns_are_byte_identical(tmp_path):
    args = ["sample", "--length", "8", "--delta", "2.0", "--t", "1.0",
            "--n-snapshots", "150", "--seed", "7"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "snapshots.txt").read_bytes() == (b / "snapshots.txt").read_bytes()
    assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
    assert manifest(a)["content_hash"] == manifest(b)["content_hash"]
    assert main(args[:-1] + ["8", "--out", str(c)]) == 0  # different seed
    assert (a / "snapshots.txt").read_bytes() != (c / "snapshots.txt").read_bytes()


def test_sample_estimates_have_errors(tmp_path):
    out = tmp_path / "o"
    assert main(["sample", "--length", "8", "--delta", "2.0", "--t", "1.0",
                 "--n-snapshots", "150", "--out", str(out)]) == 0
    _, names, rows = load_csv(out / "estimates.csv")
    assert rows[0][0] == "participation"
    groups = {r[0] for r in rows}
    assert groups == {"participation", "pup", "pupp"}
    assert all(float(r[names.index("error")]) >= 0 for r in rows)
    assert float(rows[0][names.index("error")]) > 0


def test_manifest_hash_tracks_parameters(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["dispersion1", "--length", "10", "--out"]
    assert main(base + [str(a)]) == 0
    assert main(base[:-1] + ["--delta", "0.5", "--out", str(b)]) == 0
    assert manifest(a)["content_hash"] != manifest(b)["content_hash"]


def test_resolve_config_defaults_complete():
    for experiment in ("dispersion1", "dispersion2", "phase-diagram", "quench",
                       "participation", "floquet-bench", "entropy", "sample"):
        cfg = resolve_config(experiment, {}, {})
        assert "length" in cfg
        assert not any(k.endswith("_s") for k in cfg)


def test_full_space_guard_surfaces_as_error(tmp_path, capsys):
    code = main(["floquet-bench", "--length", "30", "--n-steps", "2",
                 "--n-det", "1", "--det-max", "0.0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "L" in capsys.readouterr().err


def test_pulse_guard_rejects_before_allocating(tmp_path, capsys):
    L = PULSE_MAX_L + 1
    tracemalloc.start()
    try:
        code = main(["floquet-bench", "--length", str(L), "--n-steps", "2",
                     "--n-det", "1", "--det-max", "0.0",
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    d = (2 ** (L - 1) + 2 ** (L // 2)) // 2
    assert f"dim {d} ({8 * d * d} bytes at L={L})" in capsys.readouterr().err
    assert peak < 2**20  # the largest block alone would be 33 MiB


def test_cli_import_loads_no_scipy_solver_module():
    # TwoMagnonBlock.top_state and the polylog series of dispersion_one /
    # group_velocity_one import these inside the function, which keeps them
    # out of every experiment's start-up time and memory (krylov_evolve runs
    # the Chebyshev series and needs neither); a fresh interpreter sees what
    # the import alone loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, magnonlab.cli; print(sorted(m for m in "
            "('scipy.linalg', 'scipy.sparse.linalg', 'mpmath') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "[]"


def test_pair_spectroscopy_run_loads_no_scipy_linalg(tmp_path):
    # the benchmark's dispersion2 call: its ring curve (9 solves of dim 9)
    # takes numpy's eigh, so the run never imports scipy.linalg (about 7 MiB
    # and 30 ms)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, magnonlab.cli as cli; code = cli.main(['dispersion2', "
            "'--length', '18', '--delta', '3', '--measure', '1', '--out', sys.argv[1]]); "
            "print(code, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_cli_blas_thread_scope_loads_no_scipy_linalg(tmp_path):
    # the pulse and snapshot runs never touch scipy's OpenBLAS; loading it
    # for the thread scope would add about 8 MiB to each
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, magnonlab.cli as cli; "
            f"cli.main({FLOQUET_SMALL!r} + ['--out', sys.argv[1] + '/f']); "
            "cli.main(['sample', '--length', '8', '--n-snapshots', '20', "
            "'--out', sys.argv[1] + '/s']); print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_cli_sector_guard_rejects_before_allocating(tmp_path, capsys):
    # the n=2 sector of L=400 has dim 79,800 and 796 hops per row; its build
    # would peak in the data gather, at 24 bytes per hop, 9 per row and site,
    # 24 per row and the (L, L) couplings
    L, dim = 400, 79800
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = main(["quench", "--length", str(L), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert (f"dim {dim}, and building its Hamiltonian peaks at about "
            f"{dim * (24 * 796 + 9 * L + 24) + 8 * L * L} bytes") in capsys.readouterr().err
    assert peak < 2**20  # the build would take 1.8 GB
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["quench", "sample", "entropy"])
def test_cli_separation_zero_fails_without_files(tmp_path, capsys, experiment):
    # both magnons on one site once died in a KeyError traceback
    out = tmp_path / "o"
    code = main([experiment, "--length", "8", "--separation", "0", "--out", str(out)])
    assert code == 2
    assert ("config error: 'separation' must be at most 4 at L=8 and at least 1"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["quench", "sample", "entropy"])
def test_cli_negative_separation_fails_without_files(tmp_path, capsys, experiment):
    # it once ran silently with the second magnon left of the first
    out = tmp_path / "o"
    code = main([experiment, "--length", "12", "--separation", "-2", "--out", str(out)])
    assert code == 2
    assert ("config error: 'separation' must be at most 6 at L=12 and at least 1, so that "
            "the second magnon sits on the chain right of the first; got -2"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("level", ["1.5", "nan"])
def test_cli_quench_rejects_a_front_level_outside_the_unit_interval(tmp_path, capsys,
                                                                   level):
    # the front fit once died in an IndexError traceback
    out = tmp_path / "o"
    assert main(["quench", "--length", "8", "--front-level", level,
                 "--out", str(out)]) == 2
    assert "config error: 'front_level' must lie in (0, 1)" in capsys.readouterr().err
    assert files_under(out) == []


@pytest.mark.parametrize("args", [["dispersion1", "--alpha", "nan"],
                                  ["quench", "--delta", "nan"],
                                  # its grid once overflowed to infinite detunings
                                  # and died in eigh
                                  ["floquet-bench", "--det-max", "1e308"]])
def test_cli_non_finite_model_parameter_fails_fast(tmp_path, args):
    # each once hung or died inside a solver; the check names the field
    message = {"--alpha": "alpha must be finite", "--delta": "delta must be finite",
               "--det-max": "'det_max' must be at least 0 and finite"}[args[1]]
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "magnonlab.cli", *args, "--length", "8",
                          "--out", str(tmp_path / "o")], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert out.returncode == 2
    assert f"config error: {message}" in out.stderr
    assert not (tmp_path / "o").exists()
