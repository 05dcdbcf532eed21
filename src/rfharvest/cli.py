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
from .optimize import solve
from .params import (NetworkParams, _distinct, _scalar, _table, _take, charging_geometry,
                     load_params, params_to_dict, validate)
from .sim import (ConditioningTooRareError, SimConfig, _outage_curves, estimate_outage,
                  estimate_p_t, interference_samples)

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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep bounds must be finite, got {text!r}")
    if not start < stop:
        raise ValueError("sweep start must be below stop")
    if scale not in ("linear", "log"):
        raise ValueError(f"unknown sweep scale {scale!r}")
    if scale == "log" and start <= 0:
        raise ValueError("log sweep requires start > 0")
    return SweepSpec(name=name, start=start, stop=stop, n_points=n, scale=scale)


def _sweep_table(base: NetworkParams, sweeps: list[SweepSpec]) -> NetworkParams:
    """The cartesian grid of ``sweeps`` over ``base`` as a table, one row per
    point, the first sweep varying slowest.  Not validated."""
    names = [s.name for s in sweeps]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"parameter {name!r} is swept twice")
    grids = np.meshgrid(*[s.values() for s in sweeps], indexing="ij")
    return _table(base, dict(zip(names, (g.ravel() for g in grids))))


def _first_error(table_columns):
    """``table_columns``, a map from a table to its columns, made to raise,
    when a row fails, the error of the first row that fails, as evaluating
    the rows one by one meets it.

    Rows are independent: a run of rows fails exactly when one of its rows
    fails alone.  So the failing run is halved, keeping its first half if
    that fails and its second half if not, down to one row, which is then
    evaluated alone to raise its own error.  (``simulate`` validates its
    whole grid before it simulates a point, so it is not wrapped.)
    """
    def columns(table: NetworkParams) -> dict:
        try:
            return table_columns(table)
        except ValueError:
            lo, hi = 0, len(table.power_s)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    table_columns(_take(table, slice(lo, mid)))
                    lo = mid
                except ValueError:
                    hi = mid
            table_columns(_take(table, slice(lo, hi)))
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
    ``format(x, ".12g")``.  A column of strings (``binding``) is its own
    text.  One of Python ints, strings and None (``m_slots``,
    ``m_at_optimum``) is deduplicated by value, as equal values of those
    types print alike.
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
    kinds = set(map(type, values))
    if kinds == {str}:
        return values
    if kinds <= {int, str, type(None)}:
        distinct = set(values)
        ints = [v for v in distinct if type(v) is int]
        texts = dict(zip(ints, _percent("%d", ints)))
        texts.update((v, _fmt(v)) for v in distinct if type(v) is not int)
        return list(map(texts.__getitem__, values))
    return [_fmt(v) for v in values]


# Rows formatted at a time: bounds the memory the formatted text takes.
_CHUNK_ROWS = 2048


def _write_csv(path, header_lines, columns: dict) -> None:
    """Write a CSV of ``columns``, a sequence of values per column name.

    Names and values are identifiers, numbers and bare words, which CSV
    never quotes, so a row is its fields joined by commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        values = list(columns.values())
        for i in range(0, len(values[0]), _CHUNK_ROWS):
            rows = zip(*[_fmt_column(c[i:i + _CHUNK_ROWS]) for c in values])
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
    """``RFH_THREADS``, else the CPUs this process may run on."""
    env = os.environ.get("RFH_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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


def _write_sweep(args, command, table_columns, **header_kw) -> int:
    """Write one row per point of the ``--sweep`` grid over ``--config``.

    A row is the point's swept values followed by its entries of
    ``table_columns(table)``, which maps the grid's table, not yet
    validated, to its columns by name.  Every column is complete before
    the file is opened, so a failing point leaves no partial CSV.
    """
    base = load_params(args.config)
    sweeps = [parse_sweep(s) for s in args.sweep]
    table = _sweep_table(base, sweeps)
    columns = {s.name: getattr(table, s.name) for s in sweeps} | table_columns(table)
    _write_csv(args.out, _headers(command, base, sweeps=sweeps, **header_kw), columns)
    return 0


# -- analyze -------------------------------------------------------------------

ANALYZE_COLUMNS = ("m_slots", "p_g", "p_h", "p_t_exact", "p_t_lower", "p_t_upper",
                   "active_density", "tau_p", "outage_p", "tau_s", "outage_s",
                   "outage_s_clamped")


@_first_error
def _analyze_columns(table: NetworkParams) -> dict:
    validate(table, warn=False)
    geom = charging_geometry(table)
    z = zone_probabilities(table, geom)
    tp = transmission_probability(table, geom, z)
    active = tp.conservative * table.lambda_s
    op = outage_primary(table, active)
    osec = outage_secondary(table, active)
    return dict(zip(ANALYZE_COLUMNS, (
        geom.m_slots, z.p_g, z.p_h, tp.value, tp.lower, tp.upper, active, op.tau,
        op.probability, osec.tau, osec.probability, osec.clamped.astype(int))))


def cmd_analyze(args) -> int:
    return _write_sweep(args, "analyze", _analyze_columns)


# -- simulate ------------------------------------------------------------------


def _est_columns(ests) -> dict:
    return {"estimate": [e.mean for e in ests], "half_width": [e.half_width for e in ests],
            "n_samples": [e.n_samples for e in ests]}


def _simulate_point(job):
    params, config, target = job
    if target == "p_t":
        return estimate_p_t(params, config)
    return estimate_outage(params, config, target.removeprefix("outage-"))


def _simulated(table: NetworkParams, config: SimConfig, target: str, seed: int,
               first: int = 0) -> dict:
    """``target``'s estimate at each row of ``table``, the rows on the process
    pool, row i seeded by point ``first + i`` of ``seed``."""
    return _est_columns(_pooled_map(_simulate_point, [
        (_scalar(_take(table, slice(i, i + 1))),
         replace(config, master_seed=_point_seed(seed, first + i)), target)
        for i in range(len(table.power_s))]))


def _cdf(params: NetworkParams, config: SimConfig) -> dict:
    """Matched quantile levels and sorted exact and approx interference samples."""
    exact = np.sort(interference_samples(params, config, "exact"))
    approx = np.sort(interference_samples(params, config, "approx"))
    n = min(len(exact), len(approx))
    return {"quantile": np.arange(1, n + 1) / n, "i_s_exact": exact[:n],
            "i_s_approx": approx[:n]}


def cmd_simulate(args) -> int:
    config = SimConfig(n_slots=args.slots, n_replications=args.replications,
                       window_side=args.window, warmup=args.warmup)
    header_kw = dict(seed=args.seed, replications=args.replications, slots=args.slots,
                     mode=args.mode, target=args.target)

    if args.target not in ("interference", "interference-cdf"):
        def table_columns(table):
            validate(table, warn=False)
            return _simulated(table, config, args.target, args.seed)
        return _write_sweep(args, "simulate", table_columns, **header_kw)

    if args.sweep:
        raise ValueError(f"target {args.target} does not support sweeps")
    base = load_params(args.config)
    config = replace(config, master_seed=_point_seed(args.seed, 0))
    headers = _headers("simulate", base, **header_kw)
    if args.target == "interference":
        _write_csv(args.out, headers, {"i_s": interference_samples(base, config, args.mode)})
    else:
        _write_csv(args.out, headers, _cdf(base, config))
    return 0


# -- optimize ------------------------------------------------------------------

OPTIMIZE_COLUMNS = ("status", "problem", "p_s_star", "m_at_optimum", "active_density",
                    "lambda_s_star", "lambda_s_lower", "lambda_s_upper", "c_s_star",
                    "mu_p", "mu_s", "binding")


@_first_error
def _optimize_columns(table: NetworkParams) -> dict:
    validate(table, warn=False)
    res = solve(table)
    lo, hi = res.lambda_s_interval
    return dict(zip(OPTIMIZE_COLUMNS, (
        np.where(res.binding == "", "infeasible", "ok"), np.where(table.r_g == 0, "p2", "p1"),
        res.p_s_star, res.m_at_optimum, res.active_density, res.lambda_s_star, lo, hi,
        res.throughput, res.mu_p, res.mu_s, res.binding)))


def cmd_optimize(args) -> int:
    return _write_sweep(args, "optimize", _optimize_columns)


# -- canned studies -------------------------------------------------------------
# Each study id reproduces one standard experiment with its conventional
# parameter set; analytic curves always, simulated curves where they exist.
# A study returns its curves as (file name, header, columns), reading the
# analytic columns from analyze's or optimize's and simulating its points
# as simulate does.

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


def _figure_5(args) -> list:
    base = _study_params(r_g=4.0, r_h=1.5, power_p=2.0)
    grid = np.linspace(0.01, 0.16, 20)
    table = _table(base, {"power_s": grid})
    cols = _analyze_columns(table)
    hdr = _headers("figure 5", base, seed=args.seed)
    ests = _simulated(table, _sim_cfg(args, replications=4, slots=60), "p_t", args.seed)
    return [(f"fig5_pt_{curve}.csv", hdr, {"power_s": grid, "p_t": cols[f"p_t_{curve}"]})
            for curve in ("exact", "lower", "upper")] + [
        ("fig5_pt_sim.csv", hdr, {"power_s": grid, **ests})]


def _pt_curves(figure, prefix, base, field, column, grid) -> list:
    """p_t against ``field`` over ``grid``, one curve per charging regime:
    power_s 0.1 (label m1) and 0.2 (m2)."""
    curves = []
    for label, ps in (("m1", 0.1), ("m2", 0.2)):
        cols = _analyze_columns(_table(replace(base, power_s=ps), {field: grid}))
        curves.append((f"{prefix}_{label}.csv",
                       _headers(f"figure {figure} ({label})", replace(base, power_s=ps)),
                       {column: grid, **{name: cols[name] for name in (
                           "m_slots", "p_t_exact", "p_t_lower", "p_t_upper")}}))
    return curves


def _figure_6(args) -> list:
    return _pt_curves(6, "fig6_pt", _study_params(r_g=3.0, r_h=1.0, power_p=1.0, lambda_s=2.0),
                      "lambda_p_total", "lambda_p", np.linspace(0.002, 0.2, 40))


def _figure_7(args) -> list:
    return _pt_curves(7, "fig7_pt", _study_params(r_h=1.0, power_p=1.0),
                      "r_g", "r_g", np.linspace(1.25, 8.0, 24))


def _figure_8(args) -> list:
    base = _study_params(r_g=3.0, r_h=1.0, power_p=2.0, power_s=0.1, lambda_s=0.2)
    cfg = _sim_cfg(args, replications=10, slots=200)
    hdr = _headers("figure 8", base, seed=args.seed,
                   replications=cfg.n_replications, slots=cfg.n_slots)
    return [("fig8_interference_cdf.csv", hdr, _cdf(base, cfg))]


def _outage_study(args, figure, base, column, grid, fields, simulate) -> list:
    """Figures 9 and 10: primary and secondary outage against ``column`` over
    ``grid``, whose values set every parameter in ``fields``.  The analytic
    curves are ``analyze``'s; ``simulate(table, side, k)`` returns the k-th
    side's estimates, one row per grid value."""
    hdr = _headers(f"figure {figure}", base, seed=args.seed)
    table = _table(base, dict.fromkeys(fields, grid))
    cols = _analyze_columns(table)
    return [
        (f"fig{figure}_outage_primary_analytic.csv", hdr,
         {column: grid, "outage": cols["outage_p"]}),
        (f"fig{figure}_outage_secondary_analytic.csv", hdr,
         {column: grid, "outage": cols["outage_s"], "clamped": cols["outage_s_clamped"]}),
    ] + [(f"fig{figure}_outage_{side}_sim.csv", hdr, {column: grid, **simulate(table, side, k)})
         for k, side in enumerate(("primary", "secondary"))]


def _figure_9(args) -> list:
    # Both sides step together in one lockstep batch, without the pool, and
    # a dynamics run serves all 13 thresholds.
    base = _study_params(r_g=3.0, r_h=1.0, power_p=1.0, power_s=0.1, lambda_s=0.1)
    thetas = np.geomspace(1.0, 1000.0, 13)
    curves = _outage_curves(base, [
        (_sim_cfg(args, replications=8, slots=150, seed_index=k), side, None)
        for k, side in enumerate(("primary", "secondary"))], thetas)

    def simulate(table, side, k):
        return _est_columns(curves[k])
    return _outage_study(args, 9, base, "theta", thetas, ("theta_p", "theta_s"), simulate)


def _figure_10(args) -> list:
    base = _study_params(r_g=4.0, r_h=1.0, power_p=2.0, lambda_s=0.2)
    grid = np.linspace(0.02, 0.4, 10)

    def simulate(table, side, k):
        return _simulated(table, _sim_cfg(args, replications=6, slots=120),
                          f"outage-{side}", args.seed, first=k * len(grid))
    return _outage_study(args, 10, base, "power_s", grid, ("power_s",), simulate)


def _optimum_curves(args, prefix, field, column, grid) -> list:
    """``optimize``'s ``column`` at the P1 optimum, as ``field``, against
    lambda_p over ``grid``, one curve per primary budget; infeasible points
    are empty."""
    base = _study_params(r_g=3.0, r_h=1.0, power_p=2.0, eps_s=0.3)
    return [(f"{prefix}_eps{eps:g}.csv",
             _headers(f"{prefix} (eps_p={eps:g})", replace(base, eps_p=eps), seed=args.seed),
             {"lambda_p": grid, field: _optimize_columns(
                 _table(replace(base, eps_p=eps), {"lambda_p_total": grid}))[column]})
            for eps in (0.1, 0.2, 0.3)]


def _figure_11(args) -> list:
    return _optimum_curves(args, "fig11_ps_star", "p_s_star", "p_s_star",
                           np.linspace(0.001, 0.036, 30))


def _figure_12(args) -> list:
    return _optimum_curves(args, "fig12_cs_star", "throughput", "c_s_star",
                           np.linspace(0.002, 0.075, 30))


def _figure_13(args) -> list:
    return _pt_curves(13, "fig13_wit_pt",
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
        for name, header, columns in _FIGURES[i](args):
            path = os.path.join(args.out_dir, name)
            _write_csv(path, header, columns)
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
    except (ValueError, ConditioningTooRareError, OSError) as exc:
        print(f"rfharvest: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size of the failed allocation
        print(f"rfharvest: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
