"""Column-wise sweeps against the per-row reference.

``analyze`` and ``optimize`` evaluate a sweep grid as one table of columns.
The reference below is the per-row loop they replaced: one validated
parameter set per grid point, the scalar library calls, and ``csv`` to
write the rows.  Both must write the same bytes.
"""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import pathlib
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest import (InfeasibleError, NetworkParams, charging_geometry, load_params,
                       outage_primary, outage_secondary, solve, transmission_probability,
                       validate, zone_probabilities)
from rfharvest.cli import (ANALYZE_COLUMNS, OPTIMIZE_COLUMNS, _fmt, _headers, main,
                           parse_sweep)

EXAMPLE = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "example.json")


def analyze_row(params) -> list:
    geom = charging_geometry(params)
    z = zone_probabilities(params, geom)
    tp = transmission_probability(params, geom, z)
    active = tp.conservative * params.lambda_s
    op = outage_primary(params, active)
    osec = outage_secondary(params, active)
    return [geom.m_slots, z.p_g, z.p_h,
            tp.value if tp.exact else float("nan"), tp.lower, tp.upper,
            active, op.tau, op.probability, osec.tau, osec.probability,
            int(osec.clamped)]


def optimize_row(params) -> list:
    problem = "p2" if params.r_g == 0 else "p1"
    try:
        res = solve(params)
    except InfeasibleError:
        return ["infeasible", problem] + [float("nan")] * 9 + [""]
    lo, hi = res.lambda_s_interval if res.lambda_s_interval else (float("nan"),) * 2
    return ["ok", problem, res.p_s_star, res.m_at_optimum, res.active_density,
            res.lambda_s_star, lo, hi, res.throughput,
            float("nan") if res.mu_p is None else res.mu_p, res.mu_s,
            "+".join(res.binding)]


REFERENCE = {"analyze": (ANALYZE_COLUMNS, analyze_row),
             "optimize": (OPTIMIZE_COLUMNS, optimize_row)}


def per_row_csv(path, command, config, sweep_texts) -> None:
    """Write the sweep's CSV row by row; raise the first failing row's error
    before anything is written."""
    base = load_params(config)
    sweeps = [parse_sweep(s) for s in sweep_texts]
    names = [s.name for s in sweeps]
    columns, row = REFERENCE[command]
    rows = []
    for combo in itertools.product(*[s.values() for s in sweeps]):
        point = dict(zip(names, combo))
        p = validate(dataclasses.replace(base, **{k: float(v) for k, v in point.items()}),
                     warn=False)
        rows.append([_fmt(v) for v in [point[n] for n in names] + row(p)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _headers(command, base, sweeps=sweeps):
            fh.write(f"# {line}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(tuple(names) + columns)
        w.writerows(rows)


def assert_matches_reference(tmp_path, command, config, sweeps):
    out, ref = tmp_path / "columns.csv", tmp_path / "rows.csv"
    argv = [command, "--config", config, "--out", str(out)]
    for s in sweeps:
        argv += ["--sweep", s]
    assert main(argv) == 0
    per_row_csv(ref, command, config, sweeps)
    assert out.read_bytes() == ref.read_bytes()


@pytest.fixture
def noisy_config(tmp_path):
    data = json.loads(open(EXAMPLE, encoding="utf-8").read())
    data["noise"] = 0.01
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def p2_config(tmp_path):
    data = json.loads(open(EXAMPLE, encoding="utf-8").read())
    data["r_g"] = 0.0
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(data))
    return str(path)


# Three valid values of each field at configs/example.json (r_g 3, r_h 1, d_p 0.5).
FIELD_SWEEPS = {
    "lambda_p_total": "0:0.05:3", "lambda_s": "0:1:3", "power_p": "0.5:4:3",
    "power_s": "0.05:1:3", "alpha": "2.5:6:3", "eta": "0.05:0.9:3", "r_g": "0:6:3",
    "r_h": "0.5:2.5:3", "d_p": "0.1:2:3", "d_s": "0.1:2:3", "theta_p": "1:20:3",
    "theta_s": "1:20:3", "eps_p": "0.05:0.6:3", "eps_s": "0.05:0.6:3",
    "access_prob": "0.2:1:3", "noise": "0:0.2:3",
}


def test_field_sweeps_cover_every_parameter():
    assert set(FIELD_SWEEPS) == {f.name for f in dataclasses.fields(NetworkParams)}


@pytest.mark.parametrize("field", sorted(FIELD_SWEEPS))
@pytest.mark.parametrize("command", ["analyze", "optimize", "optimize-noisy"])
def test_single_field_sweep_matches_per_row_reference(tmp_path, noisy_config, command, field):
    config = EXAMPLE
    values = FIELD_SWEEPS[field]
    if command == "optimize-noisy":
        command, config = "optimize", noisy_config
        if field == "r_g":  # r_g = 0 with noise has no optimizer
            values = "1.5:6:3"
    assert_matches_reference(tmp_path, command, config, [f"{field}={values}"])


@pytest.mark.parametrize("command, noisy, sweeps", [
    # the benchmark's design-sweep grids, 500 and 300 points instead of 60k
    ("analyze", False, ["power_s=0.02:0.9:25", "lambda_p_total=0.002:0.05:20"]),
    ("optimize", True, ["lambda_p_total=0.002:0.06:20", "eps_p=0.03:0.45:15"]),
])
def test_benchmark_grid_matches_per_row_reference(tmp_path, noisy_config, command, noisy,
                                                  sweeps):
    assert_matches_reference(tmp_path, command, noisy_config if noisy else EXAMPLE, sweeps)


@pytest.mark.parametrize("command, config, sweeps", [
    # three axes: slow, middle and fast columns repeat in different patterns
    ("analyze", "example", ["power_s=0.05:0.9:6", "r_h=0.5:2:5",
                            "lambda_p_total=0.002:0.05:4"]),
    ("optimize", "noisy", ["theta_s=1:10:4", "lambda_p_total=0.002:0.06:6",
                           "eps_p=0.03:0.45:5"]),
    # a log axis
    ("analyze", "example", ["lambda_p_total=0.001:0.05:12:log", "alpha=2.5:5:5"]),
    ("optimize", "noisy", ["power_p=0.5:8:9:log", "eps_s=0.05:0.5:6"]),
    # every row the dedicated-charger problem P2 (r_g = 0), 300 rows
    ("optimize", "p2", ["eps_s=0.05:0.5:15", "lambda_p_total=0.002:0.05:20"]),
], ids=["analyze-3d", "optimize-3d", "analyze-log", "optimize-log", "optimize-p2"])
def test_repeating_grid_matches_per_row_reference(tmp_path, noisy_config, p2_config, command,
                                                  config, sweeps):
    path = {"example": EXAMPLE, "noisy": noisy_config, "p2": p2_config}[config]
    assert_matches_reference(tmp_path, command, path, sweeps)


@pytest.mark.parametrize("command, sweeps", [
    ("analyze", ["power_s=0.05:0.5:4", "lambda_p_total=0.002:0.05:5", "power_s=0.1:0.9:3"]),
    ("optimize", ["eps_p=0.05:0.3:3", "eps_p=0.1:0.4:7"]),
    ("simulate", ["power_s=0.05:0.1:2", "power_s=0.1:0.2:2"]),
], ids=["analyze", "optimize", "simulate"])
def test_sweeping_a_name_twice_fails(tmp_path, capsys, command, sweeps):
    out = tmp_path / "x.csv"
    argv = [command, "--config", EXAMPLE, "--out", str(out)]
    for s in sweeps:
        argv += ["--sweep", s]
    assert main(argv) == 2
    name = sweeps[-1].split("=")[0]
    assert capsys.readouterr().err == (
        f"rfharvest: error: parameter {name!r} is swept twice\n")
    assert not out.exists()


# -- random sweeps, failing ones included ------------------------------------------

EXTREMES = [0.0, 1e-300, 1e300]


@st.composite
def random_sweeps(draw):
    """(command, config, sweeps): a perturbed configs/example.json, with
    zeros, 1e+-300, r_g = 0 and noise among its values, and 1-3 sweep axes
    of 2-3 points whose bounds may be extreme too."""
    data = json.loads(open(EXAMPLE, encoding="utf-8").read())
    names = sorted(data)
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        data[name] = draw(st.sampled_from(EXTREMES) | st.floats(0.5, 2.0).map(
            lambda f, v=data[name]: v * f))
    if draw(st.booleans()):
        data["r_g"] = 0.0
    if draw(st.booleans()):
        data["noise"] = draw(st.sampled_from([0.01, 1e-300, 1e300]))
    sweeps = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
        end = st.sampled_from(EXTREMES) | st.floats(0.0, 2.0 * data[name] + 1.0)
        ends = sorted(draw(st.lists(end, min_size=2, max_size=2, unique=True)))
        log = ":log" if ends[0] > 0 and draw(st.booleans()) else ""
        sweeps.append(f"{name}={ends[0]!r}:{ends[1]!r}:{draw(st.integers(2, 3))}{log}")
    return draw(st.sampled_from(["analyze", "optimize"])), data, sweeps


def per_row_main(path, command, config, sweep_texts) -> int:
    """:func:`per_row_csv` with ``main``'s exit code and error report."""
    try:
        per_row_csv(path, command, config, sweep_texts)
    except ValueError as exc:
        print(f"rfharvest: error: {exc}", file=sys.stderr)
        return 2
    return 0


def outcome(run, out):
    """(exit code, stderr, CSV bytes or None) of ``run()``, which writes ``out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run()
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=random_sweeps())
def test_random_sweep_matches_per_row_reference(tmp_path_factory, case):
    command, data, sweeps = case
    tmp = tmp_path_factory.mktemp("random")
    config = tmp / "config.json"
    config.write_text(json.dumps(data))
    out, ref = tmp / "columns.csv", tmp / "rows.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    for s in sweeps:
        argv += ["--sweep", s]
    expected = outcome(lambda: per_row_main(ref, command, str(config), sweeps), ref)
    assert outcome(lambda: main(argv), out) == expected
