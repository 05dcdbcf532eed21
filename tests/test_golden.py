"""Golden CSVs: seeded CLI outputs that must not change by accident.

Each case runs one CLI command at small settings and compares every file it
writes, byte for byte, with the copy under ``tests/golden/``.  A change that
alters an RNG stream or an output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names the changed files in CHANGES.md.
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from rfharvest import SimConfig, cli, params_from_dict
from rfharvest import sim as sim_module
from rfharvest.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
EXAMPLE = os.path.join(HERE, os.pardir, "configs", "example.json")

SIM = ["--seed", "5", "--replications", "2", "--slots", "20", "--warmup", "10",
       "--window", "40"]
POWER_SWEEP = ["--sweep", "power_s=0.05:0.15:3"]
FIGURE = ["--seed", "3", "--replications", "2", "--slots", "10", "--window", "40"]

# name -> (argv without the output path, written as a file or into a directory)
CASES = {
    **{f"simulate_{t}": (["simulate", "--target", t] + SIM + POWER_SWEEP, "file")
       for t in ("p_t", "outage-primary", "outage-secondary", "outage-wit")},
    **{f"interference_{m}": (["simulate", "--target", t] + SIM, "file")
       for m, t in (("exact", "interference"), ("approx", "interference-approx"),
                    ("cluster", "interference-cluster"))},
    "interference-cdf": (["simulate", "--target", "interference-cdf"] + SIM, "file"),
    "analyze": (["analyze", "--sweep", "power_s=0.05:0.4:6",
                 "--sweep", "lambda_p_total=0.005:0.05:5"], "file"),
    "optimize": (["optimize", "--sweep", "lambda_p_total=0.002:0.04:6",
                  "--sweep", "noise=0:0.5:3"], "file"),
    # r_g = 0 is the dedicated-charger problem P2; 1.5 and 3 are P1
    "optimize_p2": (["optimize", "--sweep", "r_g=0:3:3"], "file"),
    # m_slots 1 to 5, with lambda_p = 0 rows
    "analyze_regimes": (["analyze", "--sweep", "power_s=0.05:0.95:7",
                         "--sweep", "lambda_p_total=0:0.05:3"], "file"),
    # m_slots far beyond int64
    "analyze_huge_m": (["analyze", "--sweep", "power_s=1:1e25:3:log"], "file"),
    # a phi and guard-hole memo entry per alpha, and d_s = 0
    "analyze_alpha": (["analyze", "--sweep", "alpha=2.2:8:4", "--sweep", "d_s=0:2.5:3"],
                      "file"),
    # both P1 solvers, infeasible rows at both edges
    "optimize_edges": (["optimize", "--sweep", "eps_p=0.01:0.6:5",
                        "--sweep", "noise=0:0.2:3"], "file"),
    # lambda_p = 0: no chargers, so no secondary transmits and those rows are infeasible
    "optimize_no_chargers": (["optimize", "--sweep", "lambda_p_total=0:0.03:3",
                              "--sweep", "noise=0:0.2:2"], "file"),
    **{f"figure{i}": (["figure", "--id", str(i)] + FIGURE, "dir") for i in range(5, 14)},
}


def run_case(name: str, out_dir: str) -> list[str]:
    """Run one case, writing into ``out_dir``; returns the file names written."""
    argv, kind = CASES[name]
    if kind == "file":
        argv = argv[:1] + ["--config", EXAMPLE] + argv[1:] + [
            "--out", os.path.join(out_dir, f"{name}.csv")]
    else:
        argv = argv + ["--out-dir", out_dir]
    before = set(os.listdir(out_dir))
    if main(argv) != 0:
        raise RuntimeError(f"golden case {name} failed")
    return sorted(set(os.listdir(out_dir)) - before)


def assert_golden(name, tmp_path) -> None:
    written = run_case(name, str(tmp_path))
    assert written
    for fname in written:
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / fname).read_bytes() == expected, fname


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.setenv("RFH_THREADS", "1")
    assert_golden(name, tmp_path)


@pytest.mark.parametrize("workers", ["2", "3"])
@pytest.mark.parametrize("name", ["figure5", "figure10"])
def test_pooled_figures_unchanged_by_worker_count(name, workers, tmp_path, monkeypatch):
    # each simulated point has its own seed, so the pool reorders nothing
    monkeypatch.setenv("RFH_THREADS", workers)
    assert_golden(name, tmp_path)


def test_figure_9_starts_no_process_pool(tmp_path, monkeypatch):
    # its two outage runs fork no worker to add to its memory
    monkeypatch.setenv("RFH_THREADS", "2")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda *a, **kw: pytest.fail("figure 9 started a process pool"))
    assert_golden("figure9", tmp_path)


def test_figure_9_runs_one_outage_curve_per_side(tmp_path, monkeypatch):
    # At the default settings: one outage_curve call per side, each the
    # default warm-up of its single-slot point (14 slots) and 150 measured
    # slots, each one step of a single batch of the side's 8 replications
    runs, batches = [], []
    curve, step = cli.outage_curve, sim_module.SlotSimulator.step

    def recorded(params, config, side, thetas):
        runs.append((side, config.n_replications))
        return curve(params, config, side, thetas)

    def counted(sim):
        batches.append(sim.n_reps)
        step(sim)

    monkeypatch.setattr(cli, "outage_curve", recorded)
    monkeypatch.setattr(sim_module.SlotSimulator, "step", counted)
    assert main(["figure", "--id", "9", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "fig9_outage_primary_sim.csv", encoding="utf-8") as fh:
        config = next(line for line in fh if line.startswith("# config: "))
    warmup = SimConfig().resolved_warmup(params_from_dict(json.loads(config[len("# config: "):])))
    assert warmup == 14
    assert runs == [("primary", 8), ("secondary", 8)]
    assert batches == [8] * 2 * (warmup + 150)


def test_figure_all_writes_every_study_in_id_order(tmp_path, capsys):
    # the union of the per-study golden files, printed study by study
    assert main(["figure", "--id", "all"] + FIGURE + ["--out-dir", str(tmp_path)]) == 0
    printed = [os.path.basename(line) for line in capsys.readouterr().out.splitlines()]
    studies = [int(f[len("fig"):].split("_")[0]) for f in printed]
    assert studies == sorted(studies) and set(studies) == set(range(5, 14))
    expected = sorted(f for f in os.listdir(GOLDEN) if f.startswith("fig"))
    assert sorted(printed) == sorted(os.listdir(tmp_path)) == expected
    for fname in printed:
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            assert (tmp_path / fname).read_bytes() == fh.read(), fname


def test_every_csv_column_reaches_the_writer_as_an_array(tmp_path, monkeypatch):
    # Each file case, and figure --id all (every figure case's files), hands
    # cli._write_csv numpy arrays only.
    monkeypatch.setenv("RFH_THREADS", "1")
    columns, write = {}, cli._write_csv

    def recorded(path, header_lines, cols):
        columns[os.path.basename(path)] = cols
        write(path, header_lines, cols)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    for name in sorted(CASES):
        if CASES[name][1] == "file":
            run_case(name, str(tmp_path))
    assert main(["figure", "--id", "all"] + FIGURE + ["--out-dir", str(tmp_path)]) == 0
    assert sorted(columns) == sorted(os.listdir(GOLDEN))
    assert [(fname, name, type(c).__name__) for fname, cols in columns.items()
            for name, c in cols.items() if not isinstance(c, np.ndarray)] == []


def regenerate() -> int:
    os.environ["RFH_THREADS"] = "1"
    shutil.rmtree(GOLDEN, ignore_errors=True)
    os.makedirs(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for fname in run_case(name, tmp):
                shutil.move(os.path.join(tmp, fname), os.path.join(GOLDEN, fname))
    print(f"wrote {len(os.listdir(GOLDEN))} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
