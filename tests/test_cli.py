import concurrent.futures
import dataclasses
import json
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rfharvest import (SimConfig, estimate_p_t, load_params, outage_curve, params_to_dict,
                       transmission_probability)
from rfharvest import analytics
from rfharvest import cli as cli_module
from rfharvest import sim as sim_module
from rfharvest.cli import (_CHUNK_ROWS, SIM_TARGETS, _fmt, _n_workers, _point_seed, _write_csv,
                           main, parse_sweep)

from conftest import make_params

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def config_path(tmp_path):
    p = make_params(r_g=3.0, r_h=1.0, lambda_s=0.05, power_p=2.0, power_s=0.1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(params_to_dict(p)))
    return str(path)


def read_csv(path):
    headers, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                headers.append(line[2:])
            else:
                rows.append(line.split(","))
    return headers, rows[0], rows[1:]


# -- sweep parsing -----------------------------------------------------------------


def test_parse_sweep_forms():
    s = parse_sweep("power_s=0.01:0.2:20")
    assert (s.name, s.n_points, s.scale) == ("power_s", 20, "linear")
    s = parse_sweep("lambda_s=0.01:1:5:log")
    assert s.scale == "log"
    assert np.all(np.diff(np.log(s.values())) > 0)


@pytest.mark.parametrize("bad", [
    "power_s=1:2", "nope=1:2:5", "power_s=2:1:5", "power_s=1:2:1",
    "power_s=0:1:5:log", "power_s=1:2:5:cubic", "power_s=0.1:inf:3", "power_s=nan:1:3",
])
def test_parse_sweep_rejects(bad):
    with pytest.raises(ValueError):
        parse_sweep(bad)


@pytest.mark.parametrize("bad", ["power_s=0.1:inf:3", "power_s=nan:1:3"])
def test_parse_sweep_names_non_finite_bounds(bad):
    with pytest.raises(ValueError, match=f"sweep bounds must be finite, got '{bad}'"):
        parse_sweep(bad)


# -- analyze -----------------------------------------------------------------------


def test_analyze_single_row(config_path, tmp_path):
    out = tmp_path / "a.csv"
    assert main(["analyze", "--config", config_path, "--out", str(out)]) == 0
    headers, cols, rows = read_csv(out)
    assert any(h.startswith("config: ") for h in headers)
    assert cols[:3] == ["m_slots", "p_g", "p_h"]
    assert len(rows) == 1


def test_analyze_sweep_populates_regime_columns(config_path, tmp_path):
    out = tmp_path / "a.csv"
    rc = main(["analyze", "--config", config_path, "--out", str(out),
               "--sweep", "power_s=0.05:0.6:8"])
    assert rc == 0
    headers, cols, rows = read_csv(out)
    assert cols[0] == "power_s"
    i_exact = cols.index("p_t_exact")
    i_m = cols.index("m_slots")
    for row in rows:
        if int(row[i_m]) <= 2:
            assert row[i_exact] != ""
        else:
            assert row[i_exact] == ""
            assert float(row[cols.index("p_t_lower")]) < float(row[cols.index("p_t_upper")])


def test_analyze_unknown_sweep_parameter_fails(config_path, tmp_path, capsys):
    rc = main(["analyze", "--config", config_path, "--out", str(tmp_path / "x.csv"),
               "--sweep", "bandwidth=1:2:5"])
    assert rc == 2
    assert "bandwidth" in capsys.readouterr().err


EXAMPLE = str(ROOT / "configs" / "example.json")


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--sweep", "r_h=0.5:3.5:4"],
     "harvesting radius r_h=3.5 must be smaller than guard radius r_g=3.0"),
    (["optimize", "--sweep", "r_g=0:3:3", "--sweep", "noise=0:0.1:2"],
     "the dedicated-charger optimum is derived for zero noise"),
    # a row that fails its solve comes before a row that fails validation ...
    (["optimize", "--sweep", "eps_s=0.3:1:2", "--sweep", "noise=0:0.1:2",
      "--sweep", "r_g=0:6:2"],
     "the dedicated-charger optimum is derived for zero noise"),
    # ... and after it
    (["optimize", "--sweep", "noise=0:0.1:2", "--sweep", "eps_s=0.3:1:2",
      "--sweep", "r_g=0:6:2"],
     "eps_s must lie in (0, 1), got 1.0"),
    # 40,000 rows whose first failing row is row 199, found by halving
    (["analyze", "--sweep", "lambda_p_total=0.001:0.05:200", "--sweep", "r_h=0.5:3.0:200"],
     "harvesting radius r_h=3.0 must be smaller than guard radius r_g=3.0"),
    # valid rows (d_s = 0.5) before the first row whose d_s**alpha overflows
    (["analyze", "--sweep", "d_s=0.5:1e300:3", "--sweep", "power_s=0.05:0.2:2"],
     "pow(5e+299, 4.0) overflows the float range"),
    (["optimize", "--sweep", "d_s=0.5:1e300:3", "--sweep", "power_s=0.05:0.2:2"],
     "pow(1e+300, 4.0) overflows the float range"),
], ids=["analyze-validation", "optimize-p2-noise", "solve-row-first", "invalid-row-first",
        "deep-row", "analyze-overflow-row", "optimize-overflow-row"])
def test_sweep_reports_first_failing_row(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    rc = main(argv[:1] + ["--config", EXAMPLE, "--out", str(out)] + argv[1:])
    assert rc == 2
    assert capsys.readouterr().err == f"rfharvest: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, field, value, message", [
    ("analyze", "r_h", 1e-300, "pow(1e-300, -4.0)"),
    ("optimize", "r_h", 1e-300, "pow(1e-300, -4.0)"),
    ("simulate", "r_h", 1e-300, "pow(1e-300, -4.0)"),
    ("analyze", "d_s", 1e300, "pow(1e+300, 4.0)"),
    ("optimize", "d_s", 1e300, "pow(2e+300, 4.0)"),  # (d_s / d_p)**alpha
])
def test_overflowing_config_fails_cleanly(tmp_path, capsys, command, field, value, message):
    data = json.loads(pathlib.Path(EXAMPLE).read_text())
    data[field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "simulate":
        argv += ["--replications", "1", "--slots", "2", "--window", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"rfharvest: error: {message} overflows the float range\n"
    assert not out.exists()


def test_analyze_writes_the_row_of_a_guard_disk_beyond_the_float_range(tmp_path):
    # r_g = 1e150: r^alpha overflows inside the guard hole, where the kernel
    # is exactly 0, so the row is written with H the full-plane value
    data = json.loads(pathlib.Path(EXAMPLE).read_text())
    data.update(lambda_p_total=1e-300, r_g=1e150)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    (row,) = rows
    assert float(row[header.index("p_g")]) == pytest.approx(0.0432139182638, rel=1e-11)
    assert all(np.isfinite(float(v)) for v in row if v)


def test_analyze_builds_each_exponents_rules_once(tmp_path):
    # the guard hole takes its rows one exponent at a time: 200 exponents
    # over 40,000 rows build 200 D rules
    analytics._radial_rule.cache_clear()
    assert main(["analyze", "--config", EXAMPLE, "--out", str(tmp_path / "x.csv"),
                 "--sweep", "d_s=0.1:2.5:200", "--sweep", "alpha=2.2:8:200"]) == 0
    assert analytics._radial_rule.cache_info().misses == 200


@pytest.mark.parametrize("link", ["d_p", "d_s"])
def test_optimize_zero_link_distance_fails_cleanly(tmp_path, capsys, link):
    out = tmp_path / "x.csv"
    rc = main(["optimize", "--config", EXAMPLE, "--out", str(out),
               "--sweep", f"{link}=0:0.5:2", "--sweep", "noise=0:0.1:2"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "rfharvest: error: the throughput optimum needs positive d_p and d_s\n")
    assert not out.exists()


def test_malformed_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = params_to_dict(make_params())
    data["powr_s"] = 1.0
    bad.write_text(json.dumps(data))
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "powr_s" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, [1], "abc", True])
def test_non_number_config_value_fails_cleanly(tmp_path, capsys, value):
    bad = tmp_path / "bad.json"
    data = params_to_dict(make_params())
    data["lambda_s"] = value
    bad.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    rc = main(["analyze", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: lambda_s must be a number, got {value!r}\n")
    assert not out.exists()


def test_unresolvable_charging_radius_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params_to_dict(make_params(
        alpha=1e7, r_h=1.0, eta=0.1, power_p=1.0, power_s=0.1 * (1 + 1e-10)))))
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rfharvest: error: charging radii")


@pytest.mark.parametrize("field, value, message", [
    # eta * power_p is positive, but r_h**-alpha underflows
    ("r_h", 1e300, "per-slot harvest eta * power_p * r_h**-alpha underflows to zero at "
                   "r_h=1e+300, alpha=4.0"),
    ("power_p", 0.0, "per-slot harvest is zero; power_p and eta must be positive"),
])
@pytest.mark.filterwarnings("ignore::rfharvest.RegimeWarning")  # pi r_h^2 lambda_p = inf
def test_zero_harvest_fails_cleanly(tmp_path, capsys, field, value, message):
    data = json.loads(pathlib.Path(EXAMPLE).read_text())
    data.update({"r_g": 0.0, field: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"rfharvest: error: {message}\n"
    assert not out.exists()


# -- simulate ----------------------------------------------------------------------

SIM_ARGS = ["--sweep", "power_s=0.05:0.15:3", "--replications", "2",
            "--slots", "6", "--warmup", "10", "--window", "60", "--seed", "7"]


def test_simulate_deterministic_across_runs_and_workers(config_path, tmp_path,
                                                        monkeypatch):
    outs = []
    for i, workers in enumerate(("1", "3", "1")):
        monkeypatch.setenv("RFH_THREADS", workers)
        out = tmp_path / f"s{i}.csv"
        rc = main(["simulate", "--config", config_path, "--out", str(out)] + SIM_ARGS)
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_p_t_groups_on_the_pool_unchanged_by_worker_count(config_path, tmp_path,
                                                          monkeypatch):
    # Two charger densities are two p_t groups: two jobs, which 2 or 3
    # workers run on a pool of 2, with the serial run's bytes
    jobs, pools = [], []
    pooled_map = cli_module._pooled_map

    def spy(fn, work):
        jobs.append(len(work))
        return pooled_map(fn, work)

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli_module, "_pooled_map", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    outs = []
    for i, workers in enumerate(("1", "2", "3")):
        monkeypatch.setenv("RFH_THREADS", workers)
        out = tmp_path / f"s{i}.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--sweep", "lambda_p_total=0.005:0.02:2"] + SIM_ARGS) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert jobs == [2, 2, 2] and pools == [2, 2]
    _, _, rows = read_csv(tmp_path / "s0.csv")
    assert len(rows) == 6 and rows[0][2:] != rows[-1][2:]


def test_power_sweep_runs_one_dynamics_per_charger_density(config_path, tmp_path,
                                                           monkeypatch):
    # The power_s rows of one lambda_p_total draw the same geometry, so they
    # share one SlotSimulator, seeded by the group's first row.  Each row
    # still equals its own run at that seed, after its own warm-up (the
    # coupling bound at m_slots = 1, 100 slots at m_slots 2 and 3).
    monkeypatch.setenv("RFH_THREADS", "1")
    built = []

    class Counted(sim_module.SlotSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(len(self.battery))

    monkeypatch.setattr(sim_module, "SlotSimulator", Counted)
    out = tmp_path / "pt.csv"
    assert main(["simulate", "--config", config_path, "--out", str(out),
                 "--sweep", "power_s=0.1:0.5:3", "--sweep", "lambda_p_total=0.005:0.02:2",
                 "--replications", "2", "--slots", "6", "--window", "40", "--seed", "7"]) == 0
    assert built == [3, 3]
    monkeypatch.undo()
    _, cols, rows = read_csv(out)
    assert cols == ["power_s", "lambda_p_total", "estimate", "half_width", "n_samples"]
    base = load_params(config_path)
    powers, densities = np.linspace(0.1, 0.5, 3), np.linspace(0.005, 0.02, 2)
    for i, row in enumerate(rows):
        p = dataclasses.replace(base, power_s=powers[i // 2], lambda_p_total=densities[i % 2])
        est = estimate_p_t(p, SimConfig(n_slots=6, n_replications=2, window_side=40.0,
                                        master_seed=_point_seed(7, i % 2)))
        assert row[2:] == [_fmt(est.mean), _fmt(est.half_width), _fmt(est.n_samples)]
    assert len({tuple(row[2:]) for row in rows}) > 2


def test_outage_sweep_runs_one_dynamics_per_power(config_path, tmp_path, monkeypatch):
    # The theta_p rows of one power differ only in their SINR target, so they
    # share one outage_curve, seeded by the group's first row, and each row
    # still equals its own curve at that seed.  The two powers are two groups,
    # which 2 workers run on the pool with the serial run's bytes.
    argv = ["simulate", "--target", "outage-primary", "--config", config_path,
            "--sweep", "power_s=0.05:0.15:2", "--sweep", "theta_p=1:100:3:log",
            "--replications", "2", "--slots", "40", "--window", "40", "--seed", "7"]
    calls, curve = [], cli_module.outage_curve

    def counted(params, config, side, thetas):
        calls.append((params.power_s, len(thetas)))
        return curve(params, config, side, thetas)

    monkeypatch.setattr(cli_module, "outage_curve", counted)
    monkeypatch.setenv("RFH_THREADS", "1")
    assert main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
    assert calls == [(0.05, 3), (0.15, 3)]
    monkeypatch.undo()
    monkeypatch.setenv("RFH_THREADS", "2")
    assert main(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
    _, cols, rows = read_csv(tmp_path / "serial.csv")
    assert cols == ["power_s", "theta_p", "estimate", "half_width", "n_samples"]
    base = load_params(config_path)
    for i, row in enumerate(rows):
        p = dataclasses.replace(base, power_s=(0.05, 0.15)[i // 3],
                                theta_p=np.geomspace(1.0, 100.0, 3)[i % 3])
        cfg = SimConfig(n_slots=40, n_replications=2, window_side=40.0,
                        master_seed=_point_seed(7, 3 * (i // 3)))
        (est,) = outage_curve(p, cfg, "primary", [p.theta_p])
        assert row[2:] == [_fmt(est.mean), _fmt(est.half_width), _fmt(est.n_samples)]
    assert len({row[2] for row in rows}) > 2


def test_one_group_sweep_imports_no_process_pool(config_path, tmp_path):
    # Only a sweep of several groups uses the pool; importing the CLI and
    # running a one-group power sweep on 2 workers leave it unloaded
    argv = ["simulate", "--config", config_path, "--out", str(tmp_path / "pt.csv")] + SIM_ARGS
    code = ("import sys\n"
            "from rfharvest.cli import main\n"
            "print('concurrent.futures.process' in sys.modules)\n"
            f"assert main({argv!r}) == 0\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    env = dict(os.environ, RFH_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("bad", ["abc", "2.5", "0", "-3"])
def test_bad_thread_count_fails_cleanly(config_path, tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setenv("RFH_THREADS", bad)
    rc = main(["simulate", "--config", config_path, "--out", str(tmp_path / "x.csv")]
              + SIM_ARGS)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: RFH_THREADS must be a positive integer, got '{bad}'\n")


def test_worker_count_follows_cpu_affinity(monkeypatch):
    # a process pinned to one of many cores forks one worker, not one per core
    monkeypatch.delenv("RFH_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _n_workers() == 1


def test_simulate_zero_replications_fails(config_path, tmp_path, capsys):
    rc = main(["simulate", "--config", config_path, "--out", str(tmp_path / "x.csv"),
               "--replications", "0", "--slots", "5"])
    assert rc == 2
    assert "replications" in capsys.readouterr().err


@pytest.mark.parametrize("target, mode", [("p_t", "approx"), ("outage-secondary", "cluster"),
                                          ("interference-cdf", "approx"),
                                          ("interference", "approx")])
def test_simulate_refuses_mode_its_target_ignores(config_path, tmp_path, capsys, target, mode):
    # the target names the sampler (interference-approx, ...): no target takes --mode
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", config_path, "--out", str(out), "--target", target,
              "--mode", mode, "--slots", "4"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_help_lists_no_mode(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    help_text = capsys.readouterr().out
    assert "--target" in help_text and "--mode" not in help_text


@pytest.mark.parametrize("target", SIM_TARGETS)
def test_every_simulate_target_runs_and_names_itself(config_path, tmp_path, monkeypatch,
                                                     target):
    monkeypatch.setenv("RFH_THREADS", "1")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", config_path, "--out", str(out), "--target", target,
                 "--replications", "1", "--slots", "3", "--warmup", "2",
                 "--window", "40"]) == 0
    headers, _, rows = read_csv(out)
    assert headers[-1] == f"target: {target}" and rows


@pytest.mark.parametrize("flag, value, message", [
    ("--warmup", "-3", "warmup must be non-negative, got -3"),
    ("--window", "nan", "window side must be finite and positive, got nan"),
    ("--window", "inf", "window side must be finite and positive, got inf"),
    ("--window", "0", "window side must be finite and positive, got 0.0"),
    ("--window", "1e160", "window side 1e+160 has an area too large to represent"),
])
def test_simulate_bad_warmup_or_window_fails_cleanly(config_path, tmp_path, capsys,
                                                      flag, value, message):
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out), "--target", "p_t",
               "--slots", "4", flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"rfharvest: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--target", "p_t", "--seed", "-1"]] + [
    ["figure", "--id", fig, "--seed", "-3"] for fig in [*map(str, range(5, 14)), "all"]],
    ids=lambda argv: " ".join(argv[:3]))
def test_negative_seed_fails_cleanly(config_path, tmp_path, capsys, argv):
    # before: numpy's "expected non-negative integer", naming neither the
    # option nor the value, and figure 11 wrote "# seed: -1" and exited 0
    out = tmp_path / "out"
    where = (["--config", config_path, "--out", str(out)] if argv[0] == "simulate"
             else ["--out-dir", str(out)])
    assert main(argv + where) == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: --seed must be non-negative, got {argv[-1]}\n")
    assert not out.exists()


@pytest.mark.parametrize("target, overrides, sweep, message", [
    # before: a numpy overflow warning and an outage of 1
    ("outage-secondary", {"d_s": 1e300}, [], "d_s=1e+300"),
    # before: rows 12.75 and 25 simulated on a torus they do not fit
    ("outage-wit", {}, ["--sweep", "d_s=0.5:25:3"], "d_s=12.75"),
    ("outage-primary", {"r_g": 0.0, "d_p": 10.0}, [], "d_p=10.0"),
])
def test_simulate_link_beyond_half_the_window_fails_cleanly(tmp_path, capsys, monkeypatch,
                                                            target, overrides, sweep, message):
    monkeypatch.setenv("RFH_THREADS", "1")
    data = json.loads(pathlib.Path(EXAMPLE).read_text())
    data.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", str(config), "--out", str(out), "--target", target,
               "--window", "20", "--replications", "2", "--slots", "5", "--warmup", "5"]
              + sweep)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: link distance {message} must be smaller than half the window "
        "side 20.0\n")
    assert not out.exists()


def test_simulate_oversized_window_fails_cleanly(config_path, tmp_path, capsys):
    # ~1e17 secondaries: the first allocation fails at once, using no memory
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out), "--window", "1e9"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rfharvest: error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("target", [["--target", "p_t"], ["--target", "interference-approx"]],
                         ids=["p_t", "interference-approx"])
def test_simulate_refuses_window_too_large_to_draw(config_path, tmp_path, capsys, target):
    p = load_params(config_path)
    # the dynamics draw the chargers first; the surrogate draws the transmitters
    density = p.lambda_p if "p_t" in target else (
        transmission_probability(p).conservative * p.lambda_s)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out), "--window", "1e20",
               "--replications", "1", "--slots", "2"] + target)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: a window of side 1e+20 expects {density * 1e20 * 1e20:.4g} "
        f"points at density {density:g}, over the limit of 1e18\n")
    assert not out.exists()


def test_simulate_refuses_default_window_of_huge_guard_radius(tmp_path, capsys):
    # the default window, 20 r_g = 2e301, has an area beyond the float range
    config = tmp_path / "config.json"
    config.write_text(json.dumps(params_to_dict(make_params(r_g=1e300))))
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", str(config), "--out", str(out),
               "--replications", "1", "--slots", "2"])
    assert rc == 2
    assert capsys.readouterr().err == ("rfharvest: error: window side 2e+301 has an area too "
                                       "large to represent\n")
    assert not out.exists()


def _example_with(tmp_path, **kw) -> str:
    """configs/example.json with the fields ``kw`` replaced, as a file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads(pathlib.Path(EXAMPLE).read_text()) | kw))
    return str(path)


def _data_lines(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("lambda_p_total", [0.01, 0.0])
@pytest.mark.parametrize("target", [["p_t"], ["outage-primary"], ["outage-wit"],
                                    ["interference-cluster"],
                                    ["interference-cdf"]], ids=lambda t: "-".join(t))
def test_simulate_refuses_huge_guard_radius_at_any_primary_density(tmp_path, capsys, target,
                                                                   lambda_p_total):
    # At lambda_p = 0, p_g was exp(NaN), hence an inf warm-up, and with
    # p_g = 1 the default window's area overflowed uncaught.
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", _example_with(tmp_path, r_g=1e300,
                                                     lambda_p_total=lambda_p_total),
               "--out", str(out), "--replications", "1", "--slots", "2", "--target"] + target)
    assert rc == 2
    assert capsys.readouterr().err == ("rfharvest: error: window side 2e+301 has an area too "
                                       "large to represent\n")
    assert not out.exists()


def test_huge_guard_radius_with_primaries_covers_the_plane(tmp_path, capsys):
    # pi r_g^2 lambda_p overflows to inf, so p_g = 0, with no numpy warning
    config = _example_with(tmp_path, r_g=1e300)
    out = tmp_path / "x.csv"
    assert main(["analyze", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("rfharvest: error: guard zones cover the plane "
                                       "(p_g = 0)\n")
    assert main(["optimize", "--config", config, "--out", str(out)]) == 0
    assert _data_lines(out)[1].startswith("infeasible,p1,")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["analyze", "optimize"])
def test_huge_guard_radius_without_primaries_changes_nothing(tmp_path, capsys, command):
    # No primaries, no guard disks: any r_g gives r_g = 3's rows.  Before,
    # p_g was exp(NaN), analyze overflowed in the guard hole and optimize
    # failed to convert NaN to an integer.
    rows = []
    for r_g in (3.0, 1e300):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", _example_with(tmp_path, r_g=r_g, lambda_p_total=0.0),
                     "--out", str(out)]) == 0
        rows.append(_data_lines(out))
    assert rows[1] == rows[0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("target", ["p_t", "outage-secondary"])
def test_simulate_refuses_runaway_warmup(tmp_path, capsys, target):
    # m_slots reaches 5e24 here, and the default warm-up is 10 m_slots slots
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", EXAMPLE, "--out", str(out), "--target", target,
               "--sweep", "power_s=1e24:1e25:2", "--replications", "1", "--slots", "2",
               "--window", "60"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rfharvest: error: a replication would run ")
    assert "warm-up slots (m_slots = " in err and "over the limit of 4194304" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::rfharvest.RegimeWarning")  # power_s 1e6 >> power_p
def test_simulate_refuses_huge_m_slots_before_stepping(tmp_path, capsys, monkeypatch):
    # power_s = 1e6 gives m_slots = 5e6 and a default warm-up of 5e7 slots,
    # about 30 h of steps at window 30: refused before any simulator exists
    def built(*args, **kwargs):
        raise AssertionError("a SlotSimulator was built")

    monkeypatch.setattr(sim_module, "SlotSimulator", built)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", _example_with(tmp_path, power_s=1e6), "--out", str(out),
               "--target", "p_t", "--window", "30", "--replications", "2", "--slots", "5"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "rfharvest: error: a replication would run 50000000 warm-up slots (m_slots = "
        f"5000000) plus 5 measured slots, over the limit of {2 ** 22}\n")
    assert not out.exists()


def test_simulate_interference_cdf(config_path, tmp_path):
    out = tmp_path / "cdf.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out),
               "--target", "interference-cdf", "--replications", "2",
               "--slots", "10", "--warmup", "10", "--window", "60"])
    assert rc == 0
    _, cols, rows = read_csv(out)
    assert cols == ["quantile", "i_s_exact", "i_s_approx"]
    assert len(rows) == 20
    assert float(rows[-1][0]) == pytest.approx(1.0)
    exact = [float(r[1]) for r in rows]
    assert exact == sorted(exact)


def test_simulate_interference_cluster_mode(config_path, tmp_path):
    out = tmp_path / "i.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out),
               "--target", "interference-cluster", "--replications", "2",
               "--slots", "10", "--window", "60", "--seed", "4"])
    assert rc == 0
    comments, cols, rows = read_csv(out)
    assert "target: interference-cluster" in comments
    assert cols == ["i_s"] and len(rows) == 20
    assert all(float(r[0]) >= 0.0 for r in rows)


def test_simulate_interference_rejects_sweep(config_path, tmp_path, capsys):
    rc = main(["simulate", "--config", config_path, "--out", str(tmp_path / "x.csv"),
               "--target", "interference-cdf", "--sweep", "power_s=0.1:0.2:2"])
    assert rc == 2


def test_simulate_outage_target(config_path, tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out),
               "--target", "outage-primary", "--replications", "2", "--slots", "8",
               "--warmup", "10", "--window", "60"])
    assert rc == 0
    _, cols, rows = read_csv(out)
    assert cols == ["estimate", "half_width", "n_samples"]
    assert 0.0 <= float(rows[0][0]) <= 1.0


# -- optimize ----------------------------------------------------------------------


def test_optimize_sweep_keeps_infeasible_rows(config_path, tmp_path):
    out = tmp_path / "opt.csv"
    rc = main(["optimize", "--config", config_path, "--out", str(out),
               "--sweep", "lambda_p_total=0.005:0.05:6", "--sweep", "eps_p=0.1:0.3:2"])
    assert rc == 0
    _, cols, rows = read_csv(out)
    status = [r[cols.index("status")] for r in rows]
    assert len(rows) == 12
    assert "infeasible" in status and "ok" in status
    ok_row = rows[status.index("ok")]
    assert float(ok_row[cols.index("c_s_star")]) > 0


def test_optimize_dispatches_dedicated_charger_problem(tmp_path):
    p = make_params(r_g=0.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params_to_dict(p)))
    out = tmp_path / "p2.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols, rows = read_csv(out)
    assert rows[0][cols.index("problem")] == "p2"
    assert rows[0][cols.index("binding")] == "secondary"


# -- canned studies ----------------------------------------------------------------


def test_figure_unknown_id_fails(tmp_path, capsys):
    rc = main(["figure", "--id", "99", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown figure id" in capsys.readouterr().err


def test_figure_7_outputs_decreasing_curves(tmp_path):
    rc = main(["figure", "--id", "7", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in ("fig7_pt_m1.csv", "fig7_pt_m2.csv"):
        _, cols, rows = read_csv(tmp_path / name)
        vals = [float(r[cols.index("p_t_exact")]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_figure_13_outputs_two_increasing_curves(tmp_path):
    rc = main(["figure", "--id", "13", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in ("fig13_wit_pt_m1.csv", "fig13_wit_pt_m2.csv"):
        _, cols, rows = read_csv(tmp_path / name)
        vals = [float(r[cols.index("p_t_exact")]) for r in rows]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_figure_12_marks_infeasible_cells_empty(tmp_path):
    rc = main(["figure", "--id", "12", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, cols, rows = read_csv(tmp_path / "fig12_cs_star_eps0.1.csv")
    tight = [r[cols.index("throughput")] for r in rows]
    assert "" in tight and any(v != "" for v in tight)
    # the looser budget stays feasible across the whole grid
    _, cols, rows = read_csv(tmp_path / "fig12_cs_star_eps0.3.csv")
    assert all(r[cols.index("throughput")] != "" for r in rows)


def test_header_echo_reproduces_file(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("RFH_THREADS", "1")
    out1 = tmp_path / "one.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out1)] + SIM_ARGS)
    assert rc == 0
    headers, _, _ = read_csv(out1)
    echoed = next(h for h in headers if h.startswith("config: "))[len("config: "):]
    cfg2 = tmp_path / "echoed.json"
    cfg2.write_text(echoed)
    out2 = tmp_path / "two.csv"
    rc = main(["simulate", "--config", str(cfg2), "--out", str(out2)] + SIM_ARGS)
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_header_rebuilds_the_simulate_command(config_path, tmp_path, monkeypatch):
    # Every option simulate ran with is in its header: the command rebuilt
    # from the header alone writes the same bytes.  Before, the header left
    # out --window and --warmup, so the rebuilt command ran the defaults.
    monkeypatch.setenv("RFH_THREADS", "1")
    out1 = tmp_path / "one.csv"
    assert main(["simulate", "--config", config_path, "--out", str(out1),
                 "--target", "outage-secondary"] + SIM_ARGS) == 0
    headers, _, _ = read_csv(out1)
    entries = [h.split(": ", 1) for h in headers[1:]]
    assert entries[0] == ["command", "simulate"]
    cfg2 = tmp_path / "echoed.json"
    out2 = tmp_path / "two.csv"
    argv = ["simulate", "--out", str(out2)]
    for key, value in entries[1:]:
        if key == "config":
            cfg2.write_text(value)
            value = str(cfg2)
        argv += [f"--{key}", value]
    assert main(argv) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_header_reproduces_its_grid(config_path, tmp_path):
    # The recorded sweep parses back to the file's first column.  Before,
    # its bounds had six significant digits: 0.1234567 was recorded as 0.123457.
    out = tmp_path / "a.csv"
    assert main(["analyze", "--config", config_path, "--out", str(out),
                 "--sweep", "power_s=0.1234567:0.2:3"]) == 0
    headers, _, rows = read_csv(out)
    (sweep,) = [h[len("sweep: "):] for h in headers if h.startswith("sweep: ")]
    assert sweep == "power_s=0.1234567:0.2:3"
    assert [_fmt(v) for v in parse_sweep(sweep).values().tolist()] == [r[0] for r in rows]


# -- scripts -----------------------------------------------------------------------


def _design_point(config):
    """scripts/design_point.py run on ``config`` at 2 replications of 10 slots."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "design_point.py"), "--config", str(config),
         "--replications", "2", "--slots", "10"],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("r_g", [None, 0.0], ids=["p1", "p2"])
def test_design_point_script_runs(tmp_path, r_g):
    config = ROOT / "configs" / "example.json"
    if r_g is not None:  # dedicated chargers: solve() takes P2
        data = json.loads(config.read_text())
        data["r_g"] = r_g
        config = tmp_path / "dedicated.json"
        config.write_text(json.dumps(data))
    run = _design_point(config)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert any(line.startswith("optimal transmit power") for line in lines)
    assert any(line.startswith("transmit probability") for line in lines)
    # each outage of the design's problem against its budget
    sides = ["primary", "secondary"] if r_g is None else ["wit"]
    outages = [line.split()[0] for line in lines if line.split()[1:2] == ["outage"]]
    assert outages == sides
    assert all("budget eps_" in line for line in lines if line.split()[1:2] == ["outage"])


def test_design_point_script_reports_an_infeasible_design(tmp_path):
    # eps_p below the chargers' own interference floor: no density is feasible
    data = json.loads((ROOT / "configs" / "example.json").read_text())
    data["eps_p"] = 0.001
    config = tmp_path / "infeasible.json"
    config.write_text(json.dumps(data))
    run = _design_point(config)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("design_point.py: error: primary constraint unsatisfiable")
    assert "Traceback" not in run.stderr


def _numpy_ma_modules(commands):
    """The numpy.ma modules loaded after running the CLI commands in a fresh
    interpreter."""
    code = ("import json, sys\n"
            "from rfharvest.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    env = dict(os.environ, RFH_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_simulator_never_imports_numpy_ma(config_path, tmp_path):
    # numpy.ma costs every simulating process, pool workers included,
    # 12-15 ms, and a bare np.unique(a) imports it (as do the set routines
    # built on it): run each simulator path in a fresh interpreter and
    # check it stayed out
    fig, cfg = str(tmp_path / "fig"), config_path
    tiny = ["--replications", "2", "--slots", "5", "--window", "40", "--seed", "3"]
    assert _numpy_ma_modules([
        ["simulate", "--config", cfg, "--out", str(tmp_path / "pt.csv"), "--target", "p_t",
         "--warmup", "5"] + tiny,
        ["simulate", "--config", cfg, "--out", str(tmp_path / "os.csv"),
         "--target", "outage-secondary", "--warmup", "5"] + tiny,
        ["simulate", "--config", cfg, "--out", str(tmp_path / "i.csv"),
         "--target", "interference-cluster"] + tiny,
        ["figure", "--id", "9", "--out-dir", fig] + tiny,
    ]) == "[]"


def test_design_sweeps_never_import_numpy_ma(config_path, tmp_path):
    # sweeps of 256 rows or more reach params._distinct, in the closed
    # forms and in the CSV writer, and numpy.ma must stay out of them too
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(dict(json.loads(pathlib.Path(config_path).read_text()),
                                     noise=0.01)))
    assert _numpy_ma_modules([
        ["analyze", "--config", config_path, "--out", str(tmp_path / "a.csv"),
         "--sweep", "power_s=0.01:0.9:20", "--sweep", "lambda_p_total=0.001:0.05:20"],
        ["optimize", "--config", str(noisy), "--out", str(tmp_path / "o.csv"),
         "--sweep", "lambda_p_total=0.001:0.05:20", "--sweep", "eps_p=0.02:0.4:15"],
    ]) == "[]"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_one_blas_thread_unless_the_user_sets_it(preset, expected):
    # numpy's OpenBLAS worker spins CPU after import and after an eigh of
    # order >= 32; importing the package first keeps BLAS on one thread,
    # and a value the user set wins
    code = ("import os\n"
            "from rfharvest import analytics\n"
            "analytics._gauss_jacobi(0.0, 64)\n"
            "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else []\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(tasks))\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    value, threads = run.stdout.split()
    assert value == expected
    if preset is None and threads != "0":  # 0: no /proc to count threads in
        assert threads == "1"


def test_traced_benchmark_session_runs(tmp_path):
    # perfbench/tracer.py wraps SlotSimulator.step and reads its pt_active,
    # dedicated_pt and n_st: a traced benchmark repeat must still run
    trace_dir = tmp_path / "spans"
    trace_dir.mkdir()
    request = {"trace_dir": str(trace_dir), "parts": [
        [["figure", "--id", "9", "--out-dir", str(tmp_path / "fig"), "--seed", "1",
          "--replications", "2", "--slots", "5", "--window", "40"]],
        [["simulate", "--config", "configs/example.json", "--out", str(tmp_path / "pt.csv"),
          "--target", "p_t", "--window", "40", "--replications", "2", "--slots", "5",
          "--warmup", "5"]],
    ]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "session.py"), json.dumps(request)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert [part["ok"] for part in report["parts"]] == [True, True], run.stderr
    (span_file,) = trace_dir.glob("worker-*.json")
    spans = json.loads(span_file.read_text())
    assert spans["spans"]["sim.step"]["calls"] > 0
    assert spans["spans"]["sim.step"]["errors"] == 0
    assert spans["counters"]["sim.step.pairs"] > 0


# -- CSV writer --------------------------------------------------------------------


def _reference_csv(header_lines, names, columns) -> str:
    """The text the writer must produce: each value through ``_fmt``, row by row."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [f"# {line}" for line in header_lines] + [",".join(names)]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * _CHUNK_ROWS + 904  # three chunks, the last one partial
    rows = np.arange(n)
    payload_nan = struct.unpack("<d", struct.pack("<q", 0x7FF800000000BEEF))[0]
    special = np.array([np.nan, payload_nan, -0.0, 0.0, np.inf, -np.inf, 5e-324,
                        2.2250738585072014e-308, 1e300, -1e300, 1e-300, 0.1, 1 / 3,
                        123456789012.5, 1e12, 1e-5, -2.5])
    columns = {
        # 17 values in turn, so every value repeats across each chunk boundary
        "special": special[rows % len(special)],
        # runs of 1000 rows, each crossing a chunk boundary
        "runs": np.repeat(special, 1000)[:n],
        "distinct": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "int64": np.array([0, -1, 2**63 - 1, -2**63, 7])[rows % 5],
        "huge": np.array([49999999999950000373104640, 1, 2**64, -(2**70)] * (n // 4 + 1),
                         dtype=object)[:n],
        "word": np.array(["ok", "infeasible", "p1+p2", ""])[rows % 4],
        # object columns as optimize writes them: m_at_optimum and binding
        "m_or_none": np.array([None, 1, 2, None, 3, 2**70], dtype=object)[rows % 6],
        "binding": np.array(["eps_p", "eps_p+eps_s", "", "eps_s"], dtype=object)[rows % 4],
        "str_int_none": np.array(["ok", None, 7, "", -3], dtype=object)[rows % 5],
        "mixed": np.array([None, -0.0, np.nan, 3, True, "x"] * (n // 6 + 1),
                          dtype=object)[:n],
        "flag": rows % 3 == 0,
    }
    path = tmp_path / "out.csv"
    _write_csv(path, ["a header"], [columns])
    got = path.read_text(encoding="utf-8")
    want = _reference_csv(["a header"], list(columns), list(columns.values()))
    # the first differing line, not a diff of the whole file
    assert next(((i, g, w) for i, (g, w) in enumerate(zip(got.splitlines(),
                                                          want.splitlines())) if g != w),
                None) is None
    assert got == want


def test_csv_writer_refuses_columns_of_different_lengths(tmp_path):
    # zip would silently cut every column to the shortest
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"CSV columns differ in length: \{'a': 5, 'b': 3\}"):
        _write_csv(path, [], [{"a": np.arange(5), "b": np.arange(3)}])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing_mode", [None, 0o600, 0o754], ids=["new", "600", "754"])
def test_csv_writer_gives_the_mode_of_writing_in_place(tmp_path, existing_mode):
    # a new file takes 0o666 less the umask, an existing file keeps its mode
    path = tmp_path / "out.csv"
    if existing_mode is not None:
        path.write_text("old\n")
        path.chmod(existing_mode)
    umask = os.umask(0o027)
    try:
        _write_csv(path, [], [{"a": np.arange(3)}])
    finally:
        os.umask(umask)
    assert path.read_text() == "a\n0\n1\n2\n"
    assert path.stat().st_mode & 0o777 == (0o640 if existing_mode is None else existing_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_sweep_to_dev_stdout_prints_the_csv(config_path, tmp_path, stdout):
    argv = ["analyze", "--config", config_path, "--sweep", "power_s=0.05:0.2:3"]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "rfharvest.cli", *argv, "--out", "/dev/stdout"]
    if stdout == "pipe":
        run = subprocess.run(command, capture_output=True, env=env, timeout=120)
        printed = run.stdout
    else:
        with open(tmp_path / "redirected.csv", "wb") as fh:
            run = subprocess.run(command, stdout=fh, stderr=subprocess.PIPE, env=env, timeout=120)
        printed = (tmp_path / "redirected.csv").read_bytes()
    assert run.returncode == 0, run.stderr
    assert printed == (tmp_path / "out.csv").read_bytes()


def test_csv_writer_memory_is_bounded_by_its_chunk(tmp_path):
    # Formatting whole columns up front would grow the peak with the rows.
    def peak(n):
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(n), np.repeat(rng.random(n // 100 + 1), 100)[:n],
                   np.arange(n) % 7, np.array([2**70 + i % 3 for i in range(n)], dtype=object)]
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "big.csv", [], [dict(zip("abcd", columns))])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= 1.5 * peak(20_000)
