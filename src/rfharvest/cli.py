"""Command-line front end: analysis, simulation, optimization, and sweeps.

All output is CSV (RFC-4180 style, '.' decimal separator, fixed column
order) with '#' comment headers echoing the full configuration, seed, and
version, so any file can be reproduced byte-for-byte by re-running the
command it records.  Plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .analytics import (outage_primary, outage_secondary, transmission_probability,
                        zone_probabilities)
from .optimize import InfeasibleError, solve, solve_p1_closed_form
from .params import (NetworkParams, ParameterError, _distinct, _scalar, _table, _take,
                     charging_geometry, load_params, params_to_dict, validate)
from .sim import (ConditioningTooRareError, SimConfig, estimate_outage, estimate_p_t,
                  interference_samples, outage_curve)

__all__ = ["main", "SweepSpec", "parse_sweep"]

SIM_TARGETS = ("p_t", "outage-primary", "outage-secondary", "outage-wit",
               "interference", "interference-cdf")

_PARAM_NAMES = {f.name for f in fields(NetworkParams)}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: name=start:stop:n_points[:log]."""

    name: str
    start: float
    stop: float
    n_points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.n_points)
        return np.linspace(self.start, self.stop, self.n_points)


def parse_sweep(text: str) -> SweepSpec:
    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) == 4 else "linear"
    except ValueError:
        raise ValueError(f"bad sweep {text!r}; expected name=start:stop:npoints[:log]")
    if name not in _PARAM_NAMES:
        raise ValueError(f"unknown sweep parameter {name!r}")
    if n < 2:
        raise ValueError("sweep needs at least 2 points")
    if not start < stop:
        raise ValueError("sweep start must be below stop")
    if scale not in ("linear", "log"):
        raise ValueError(f"unknown sweep scale {scale!r}")
    if scale == "log" and start <= 0:
        raise ValueError("log sweep requires start > 0")
    return SweepSpec(name=name, start=start, stop=stop, n_points=n, scale=scale)


def _sweep_table(base: NetworkParams, sweeps: list[SweepSpec]) -> NetworkParams:
    """The cartesian grid of ``sweeps`` over ``base`` as a table, one row per
    point, the first sweep varying slowest; a later sweep of the same name
    wins.  Not validated."""
    grids = np.meshgrid(*[s.values() for s in sweeps], indexing="ij")
    return _table(base, {s.name: g.ravel() for s, g in zip(sweeps, grids)})


def _first_error(table_columns):
    """``table_columns``, a map from a table to its columns, made to raise,
    when a row fails, the error of the first row that fails, as evaluating
    the rows one by one meets it.

    A row error names its row k, and no row before k failed the same or an
    earlier check, but one may fail a later check: the rows before k are
    evaluated again.  (``simulate`` validates its whole grid before it
    simulates a point, so it is not wrapped: a bad row fails at once.)
    """
    def columns(table: NetworkParams) -> list:
        try:
            return table_columns(table)
        except ValueError as exc:
            row = getattr(exc, "row", 0)
            if row:
                columns(_take(table, slice(0, row)))
            raise
    return columns


def _point_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return format(v, ".12g")
    return str(v)


def _percent(spec: str, values: list) -> list[str]:
    """``[spec % v for v in values]``, by one C-level %-format."""
    texts = ((spec + "\n") * len(values) % tuple(values)).split("\n")
    texts.pop()
    return texts


def _fmt_column(values) -> list[str]:
    """Each value formatted as :func:`_fmt` formats it.

    Each distinct value is converted to text once, and the texts are
    gathered back to the rows: in a float64 or integer column, values are
    distinct by bit pattern (``params._distinct``); ``"%.12g" % x`` equals
    ``format(x, ".12g")``.  A column of Python ints (``m_slots``) is
    deduplicated by value, as equal ints print alike.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "U":
            return values.tolist()
        if values.dtype == np.float64 or values.dtype.kind in "iu":
            codes = _distinct([values])
            distinct = values if codes is None else values[codes[0]]
            is_float = values.dtype == np.float64
            texts = _percent("%.12g" if is_float else "%d", distinct.tolist())
            if is_float and np.isnan(distinct).any():
                texts = ["" if t == "nan" else t for t in texts]
            return texts if codes is None else list(map(texts.__getitem__, codes[1].tolist()))
        values = values.tolist()
    if all(type(v) is int for v in values):
        distinct = list(set(values))
        return list(map(dict(zip(distinct, _percent("%d", distinct))).__getitem__, values))
    return [_fmt(v) for v in values]


# Rows formatted at a time: bounds the memory the formatted text takes.
_CHUNK_ROWS = 2048


def _write_csv(path, header_lines, names, columns) -> None:
    """Write a CSV of ``columns``, one sequence of values per name in ``names``.

    Names and values are identifiers, numbers and bare words, which CSV
    never quotes, so a row is its fields joined by commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            rows = zip(*[_fmt_column(c[i:i + _CHUNK_ROWS]) for c in columns])
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _headers(command: str, params: NetworkParams, *, sweeps=(), seed=None,
             replications=None, slots=None, mode=None, target=None) -> list[str]:
    lines = [f"rfharvest {__version__}", f"command: {command}",
             "config: " + json.dumps(params_to_dict(params), sort_keys=True,
                                     separators=(",", ":"))]
    for s in sweeps:
        lines.append(f"sweep: {s.name}={s.start:g}:{s.stop:g}:{s.n_points}"
                     + (":log" if s.scale == "log" else ""))
    for key, value in (("seed", seed), ("replications", replications), ("slots", slots),
                       ("mode", mode), ("target", target)):
        if value is not None:
            lines.append(f"{key}: {value}")
    return lines


def _n_workers() -> int:
    env = os.environ.get("RFH_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not (env.isdecimal() and int(env) > 0):
        raise ValueError(f"RFH_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _pooled_map(fn, jobs):
    workers = min(_n_workers(), len(jobs))
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _write_sweep(args, command, names, table_columns, **header_kw) -> int:
    """Write one row per point of the ``--sweep`` grid over ``--config``.

    A row is the point's swept values followed by its entries of
    ``table_columns(table)``, which maps the grid's table, not yet
    validated, to one sequence per column in ``names``.  Every column is
    complete before the file is opened, so a failing point leaves no
    partial CSV.
    """
    base = load_params(args.config)
    sweeps = [parse_sweep(s) for s in args.sweep]
    table = _sweep_table(base, sweeps)
    swept = [s.name for s in sweeps]
    columns = [getattr(table, n) for n in swept] + list(table_columns(table))
    _write_csv(args.out, _headers(command, base, sweeps=sweeps, **header_kw),
               tuple(swept) + names, columns)
    return 0


# -- analyze -------------------------------------------------------------------

ANALYZE_COLUMNS = ("m_slots", "p_g", "p_h", "p_t_exact", "p_t_lower", "p_t_upper",
                   "active_density", "tau_p", "outage_p", "tau_s", "outage_s",
                   "outage_s_clamped")


@_first_error
def _analyze_columns(table: NetworkParams) -> list:
    validate(table, warn=False)
    geom = charging_geometry(table)
    z = zone_probabilities(table, geom)
    tp = transmission_probability(table, geom, z)
    active = tp.conservative * table.lambda_s
    op = outage_primary(table, active)
    osec = outage_secondary(table, active)
    return [geom.m_slots, z.p_g, z.p_h, tp.value, tp.lower, tp.upper,
            active, op.tau, op.probability, osec.tau, osec.probability,
            osec.clamped.astype(int)]


def cmd_analyze(args) -> int:
    return _write_sweep(args, "analyze", ANALYZE_COLUMNS, _analyze_columns)


# -- simulate ------------------------------------------------------------------


def _est_columns(est) -> list:
    return [est.mean, est.half_width, est.n_samples]


def _simulate_point(job) -> list:
    params, config, target = job
    if target == "p_t":
        return _est_columns(estimate_p_t(params, config))
    return _est_columns(estimate_outage(params, config, target.removeprefix("outage-")))


CDF_COLUMNS = ("quantile", "i_s_exact", "i_s_approx")


def _cdf(params: NetworkParams, config: SimConfig) -> tuple:
    """Matched quantile levels and sorted exact and approx interference samples."""
    exact = np.sort(interference_samples(params, config, "exact"))
    approx = np.sort(interference_samples(params, config, "approx"))
    n = min(len(exact), len(approx))
    return np.arange(1, n + 1) / n, exact[:n], approx[:n]


def cmd_simulate(args) -> int:
    config = SimConfig(n_slots=args.slots, n_replications=args.replications,
                       window_side=args.window, warmup=args.warmup)
    header_kw = dict(seed=args.seed, replications=args.replications, slots=args.slots,
                     mode=args.mode, target=args.target)

    if args.target not in ("interference", "interference-cdf"):
        def table_columns(table):
            validate(table, warn=False)
            rows = _pooled_map(_simulate_point, [
                (_scalar(_take(table, slice(i, i + 1))),
                 replace(config, master_seed=_point_seed(args.seed, i)), args.target)
                for i in range(len(table.power_s))])
            return list(zip(*rows))
        return _write_sweep(args, "simulate", ("estimate", "half_width", "n_samples"),
                            table_columns, **header_kw)

    if args.sweep:
        raise ValueError(f"target {args.target} does not support sweeps")
    base = load_params(args.config)
    config = replace(config, master_seed=_point_seed(args.seed, 0))
    headers = _headers("simulate", base, **header_kw)
    if args.target == "interference":
        _write_csv(args.out, headers, ("i_s",),
                   [interference_samples(base, config, args.mode)])
    else:
        _write_csv(args.out, headers, CDF_COLUMNS, _cdf(base, config))
    return 0


# -- optimize ------------------------------------------------------------------

OPTIMIZE_COLUMNS = ("status", "problem", "p_s_star", "m_at_optimum", "active_density",
                    "lambda_s_star", "lambda_s_lower", "lambda_s_upper", "c_s_star",
                    "mu_p", "mu_s", "binding")


@_first_error
def _optimize_columns(table: NetworkParams) -> list:
    validate(table, warn=False)
    res = solve(table)
    lo, hi = res.lambda_s_interval
    return [np.where(res.binding == "", "infeasible", "ok"),
            np.where(table.r_g == 0, "p2", "p1"), res.p_s_star, res.m_at_optimum,
            res.active_density, res.lambda_s_star, lo, hi, res.throughput, res.mu_p,
            res.mu_s, res.binding]


def cmd_optimize(args) -> int:
    return _write_sweep(args, "optimize", OPTIMIZE_COLUMNS, _optimize_columns)


# -- canned studies -------------------------------------------------------------
# Each study id reproduces one standard experiment with its conventional
# parameter set; analytic curves always, simulated curves where they exist.

def _study_params(**kw) -> NetworkParams:
    base = dict(lambda_p_total=0.01, lambda_s=0.2, power_p=2.0, power_s=0.1,
                alpha=4.0, eta=0.1, r_g=4.0, r_h=1.5, d_p=0.5, d_s=0.5,
                theta_p=5.0, theta_s=5.0, eps_p=0.2, eps_s=0.3,
                access_prob=1.0, noise=0.0)
    base.update(kw)
    return validate(NetworkParams(**base), warn=False)


def _sim_cfg(args, *, replications, slots, seed_index=0) -> SimConfig:
    return SimConfig(
        n_replications=replications if args.replications is None else args.replications,
        n_slots=slots if args.slots is None else args.slots,
        master_seed=_point_seed(args.seed, seed_index), window_side=args.window)


def _curve(out_dir, name, header, names, grid, columns) -> str:
    """Write one study curve to ``out_dir/name``: a row per grid value, the
    value followed by its entries of ``columns``.  Returns the path."""
    path = os.path.join(out_dir, name)
    _write_csv(path, header, names, [grid, *columns])
    return path


def _figure_5(args, out_dir) -> list[str]:
    base = _study_params(r_g=4.0, r_h=1.5, power_p=2.0)
    grid = np.linspace(0.01, 0.16, 20)
    tp = transmission_probability(_table(base, {"power_s": grid}))
    hdr = _headers("figure 5", base, seed=args.seed)
    files = [_curve(out_dir, f"fig5_pt_{curve}.csv", hdr, ("power_s", "p_t"), grid, [p_t])
             for curve, p_t in (("exact", tp.value), ("lower", tp.lower), ("upper", tp.upper))]
    ests = [estimate_p_t(replace(base, power_s=float(ps)),
                         _sim_cfg(args, replications=4, slots=60, seed_index=i))
            for i, ps in enumerate(grid)]
    files.append(_curve(out_dir, "fig5_pt_sim.csv", hdr,
                        ("power_s", "estimate", "half_width", "n_samples"), grid,
                        zip(*map(_est_columns, ests))))
    return files


def _pt_curves(out_dir, figure, prefix, base, field, column, grid) -> list[str]:
    """p_t against ``field`` over ``grid``, one file per charging regime:
    power_s 0.1 (label m1) and 0.2 (m2)."""
    files = []
    for label, ps in (("m1", 0.1), ("m2", 0.2)):
        tp = transmission_probability(_table(replace(base, power_s=ps), {field: grid}))
        files.append(_curve(out_dir, f"{prefix}_{label}.csv",
                            _headers(f"figure {figure} ({label})", replace(base, power_s=ps)),
                            (column, "m_slots", "p_t_exact", "p_t_lower", "p_t_upper"), grid,
                            [tp.m_slots, tp.value, tp.lower, tp.upper]))
    return files


def _figure_6(args, out_dir) -> list[str]:
    return _pt_curves(out_dir, 6, "fig6_pt",
                      _study_params(r_g=3.0, r_h=1.0, power_p=1.0, lambda_s=2.0),
                      "lambda_p_total", "lambda_p", np.linspace(0.002, 0.2, 40))


def _figure_7(args, out_dir) -> list[str]:
    return _pt_curves(out_dir, 7, "fig7_pt", _study_params(r_h=1.0, power_p=1.0),
                      "r_g", "r_g", np.linspace(1.25, 8.0, 24))


def _figure_8(args, out_dir) -> list[str]:
    base = _study_params(r_g=3.0, r_h=1.0, power_p=2.0, power_s=0.1, lambda_s=0.2)
    cfg = _sim_cfg(args, replications=10, slots=200)
    hdr = _headers("figure 8", base, seed=args.seed,
                   replications=cfg.n_replications, slots=cfg.n_slots)
    qs, exact, approx = _cdf(base, cfg)
    return [_curve(out_dir, "fig8_interference_cdf.csv", hdr, CDF_COLUMNS, qs,
                   [exact, approx])]


def _outage_study(args, out_dir, figure, base, column, grid, fields, simulate) -> list[str]:
    """Figures 9 and 10: primary and secondary outage against ``column`` over
    ``grid``, whose values set every parameter in ``fields``.  The analytic
    curves take the conservative active density at each point;
    ``simulate(side, k)`` returns the k-th side's estimates, one per grid
    value."""
    hdr = _headers(f"figure {figure}", base, seed=args.seed)
    table = _table(base, dict.fromkeys(fields, grid))
    active = transmission_probability(table).conservative * table.lambda_s
    sec = outage_secondary(table, active)
    files = [
        _curve(out_dir, f"fig{figure}_outage_primary_analytic.csv", hdr,
               (column, "outage"), grid, [outage_primary(table, active).probability]),
        _curve(out_dir, f"fig{figure}_outage_secondary_analytic.csv", hdr,
               (column, "outage", "clamped"), grid, [sec.probability, sec.clamped.astype(int)]),
    ]
    for k, side in enumerate(("primary", "secondary")):
        files.append(_curve(out_dir, f"fig{figure}_outage_{side}_sim.csv", hdr,
                            (column, "estimate", "half_width", "n_samples"), grid,
                            zip(*map(_est_columns, simulate(side, k)))))
    return files


def _figure_9(args, out_dir) -> list[str]:
    base = _study_params(r_g=3.0, r_h=1.0, power_p=1.0, power_s=0.1, lambda_s=0.1)
    thetas = np.geomspace(1.0, 1000.0, 13)

    def simulate(side, k):
        return outage_curve(base, _sim_cfg(args, replications=8, slots=150, seed_index=k),
                            side, thetas)
    return _outage_study(args, out_dir, 9, base, "theta", thetas, ("theta_p", "theta_s"),
                         simulate)


def _figure_10(args, out_dir) -> list[str]:
    base = _study_params(r_g=4.0, r_h=1.0, power_p=2.0, lambda_s=0.2)
    grid = np.linspace(0.02, 0.4, 10)

    def simulate(side, k):
        return [estimate_outage(replace(base, power_s=float(ps)),
                                _sim_cfg(args, replications=6, slots=120,
                                         seed_index=k * len(grid) + i), side)
                for i, ps in enumerate(grid)]
    return _outage_study(args, out_dir, 10, base, "power_s", grid, ("power_s",), simulate)


def _optimum_curves(args, out_dir, prefix, field, grid):
    """The P1 optimum's ``field`` against lambda_p over ``grid``, one file per
    primary budget; infeasible points are empty."""
    base = _study_params(r_g=3.0, r_h=1.0, power_p=2.0, eps_s=0.3)
    return [_curve(out_dir, f"{prefix}_eps{eps:g}.csv",
                   _headers(f"{prefix} (eps_p={eps:g})", replace(base, eps_p=eps),
                            seed=args.seed),
                   ("lambda_p", field), grid,
                   [getattr(solve_p1_closed_form(
                       _table(replace(base, eps_p=eps), {"lambda_p_total": grid})), field)])
            for eps in (0.1, 0.2, 0.3)]


def _figure_11(args, out_dir) -> list[str]:
    return _optimum_curves(args, out_dir, "fig11_ps_star", "p_s_star",
                           np.linspace(0.001, 0.036, 30))


def _figure_12(args, out_dir) -> list[str]:
    return _optimum_curves(args, out_dir, "fig12_cs_star", "throughput",
                           np.linspace(0.002, 0.075, 30))


def _figure_13(args, out_dir) -> list[str]:
    return _pt_curves(out_dir, 13, "fig13_wit_pt",
                      _study_params(r_g=0.0, r_h=1.0, power_p=1.0, lambda_s=2.0),
                      "lambda_p_total", "lambda_p", np.linspace(0.005, 0.3, 30))


_FIGURES = {5: _figure_5, 6: _figure_6, 7: _figure_7, 8: _figure_8, 9: _figure_9,
            10: _figure_10, 11: _figure_11, 12: _figure_12, 13: _figure_13}


def cmd_figure(args) -> int:
    ids = [i for i in sorted(_FIGURES) if args.id in ("all", str(i))]
    if not ids:
        raise ValueError(f"unknown figure id {args.id}; known: {sorted(_FIGURES)} or all")
    os.makedirs(args.out_dir, exist_ok=True)
    for i in ids:
        for path in _FIGURES[i](args, args.out_dir):
            print(path)
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rfharvest",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"rfharvest {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON parameter document")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--sweep", action="append", default=[],
                        help="name=start:stop:npoints[:log]; repeatable (cartesian)")

    sp = sub.add_parser("analyze", help="closed-form curves")
    common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates")
    common(sp)
    sp.add_argument("--target", choices=SIM_TARGETS, default="p_t")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replications", type=int, default=10)
    sp.add_argument("--slots", type=int, default=200)
    sp.add_argument("--mode", choices=("exact", "approx", "cluster"), default="exact",
                    help="interference field: slotted dynamics, uniform Poisson "
                         "surrogate, or charge-cluster surrogate")
    sp.add_argument("--window", type=float, default=None)
    sp.add_argument("--warmup", type=int, default=None)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("optimize", help="throughput maximization")
    common(sp)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("figure", help="canned reference studies")
    sp.add_argument("--id", required=True,
                    help=f"study id, one of {sorted(_FIGURES)}, or all for every study")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replications", type=int, default=None)
    sp.add_argument("--slots", type=int, default=None)
    sp.add_argument("--window", type=float, default=None)
    sp.set_defaults(fn=cmd_figure)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, InfeasibleError, ConditioningTooRareError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"rfharvest: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size of the failed allocation
        print(f"rfharvest: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
