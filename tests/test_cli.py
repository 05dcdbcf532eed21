import json

import numpy as np
import pytest

from rfharvest import params_to_dict
from rfharvest.cli import main, parse_sweep

from conftest import make_params


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
    "power_s=0:1:5:log", "power_s=1:2:5:cubic",
])
def test_parse_sweep_rejects(bad):
    with pytest.raises(ValueError):
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


def test_unresolvable_charging_radius_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params_to_dict(make_params(
        alpha=1e7, r_h=1.0, eta=0.1, power_p=1.0, power_s=0.1 * (1 + 1e-10)))))
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rfharvest: error: charging radii")


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


@pytest.mark.parametrize("bad", ["abc", "2.5", "0", "-3"])
def test_bad_thread_count_fails_cleanly(config_path, tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setenv("RFH_THREADS", bad)
    rc = main(["simulate", "--config", config_path, "--out", str(tmp_path / "x.csv")]
              + SIM_ARGS)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"rfharvest: error: RFH_THREADS must be a positive integer, got '{bad}'\n")


def test_simulate_zero_replications_fails(config_path, tmp_path, capsys):
    rc = main(["simulate", "--config", config_path, "--out", str(tmp_path / "x.csv"),
               "--replications", "0", "--slots", "5"])
    assert rc == 2
    assert "replications" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--warmup", "-3", "warmup must be non-negative, got -3"),
    ("--window", "nan", "window side must be finite and positive, got nan"),
    ("--window", "inf", "window side must be finite and positive, got inf"),
    ("--window", "0", "window side must be finite and positive, got 0.0"),
])
def test_simulate_bad_warmup_or_window_fails_cleanly(config_path, tmp_path, capsys,
                                                      flag, value, message):
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", config_path, "--out", str(out), "--target", "p_t",
               "--slots", "4", flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"rfharvest: error: {message}\n"
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
               "--target", "interference", "--mode", "cluster", "--replications", "2",
               "--slots", "10", "--window", "60", "--seed", "4"])
    assert rc == 0
    comments, cols, rows = read_csv(out)
    assert "mode: cluster" in comments
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
