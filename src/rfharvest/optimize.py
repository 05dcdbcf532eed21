"""Throughput maximization of the harvesting network under outage limits.

Maximizes the spatial throughput over the secondary transmit power and
density subject to the primary and secondary outage constraints, either in
closed form (zero noise) or by bracketed bisection on the two transformed
constraint curves (any noise).  Every solver also takes a table of
parameter sets (see :mod:`rfharvest.params`) and solves its rows at once:
the bisection steps every row in lockstep, each row to its own stopping
test.  :func:`constraint_curves` takes one parameter set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import p_guard, phi, spatial_throughput, transmission_probability
from .params import (NetworkParams, _each, _fail, _is_table, _pow, _rows_of, _scalar,
                     _table, _take)

__all__ = [
    "OptimizationResult",
    "InfeasibleError",
    "mu_primary",
    "mu_secondary",
    "constraint_curves",
    "solve_p1_closed_form",
    "solve_p1_numeric",
    "solve_p2",
    "solve",
]

BISECT_MAX_ITER = 200
BISECT_RTOL = 1e-12


class InfeasibleError(ValueError):
    """The outage constraints admit no positive transmitting density."""


@dataclass(frozen=True)
class OptimizationResult:
    """Solution of a throughput-maximization problem.

    active_density is the optimal density of simultaneous transmitters
    (p_t * lambda_s); lambda_s_star is the deployment density that realizes
    it.  When the transmit probability at the optimum is only known as an
    interval, lambda_s_star holds the conservative endpoint (largest p_t,
    fewest deployed nodes) and lambda_s_interval the full range.

    For a table every field is a column: mu_p is NaN in the P2 rows,
    lambda_s_interval is a pair of columns, NaN where p_t is exact,
    m_at_optimum holds Python ints and binding the binding constraints
    joined by '+'.  An infeasible row is NaN throughout, with m_at_optimum
    None and binding ''.
    """

    p_s_star: float
    active_density: float
    throughput: float
    mu_s: float
    lambda_s_star: float
    mu_p: float | None
    lambda_s_interval: tuple[float, float] | None
    m_at_optimum: int | None
    binding: tuple[str, ...]

    _NAN_IS_NONE = ("mu_p",)


def mu_primary(eps_p: float) -> float:
    """Primary outage budget transformed to an exponent bound."""
    return -_each(math.log1p, -eps_p)


def mu_secondary(eps_s: float, p_g: float) -> float:
    """Secondary outage budget transformed through the paper's conditional form.

    Inverts ``outage_secondary_paper``: its outage equals eps_s exactly when
    tau_s = -log((1 - eps_s) p_g).  Both P1 solvers constrain the secondary
    outage through this exponent bound, so their optimum is the paper's.
    The guard-hole form (``outage_secondary``) is never below the paper's.
    """
    return -_each(math.log, (1.0 - eps_s) * p_g)


_COVERED = "guard zones cover the plane (p_g = 0)"


def _budgets(table: NetworkParams):
    """(mu_p, mu_s, floor, covered) of each row of a table: both outage
    budgets as exponent bounds, the primary exponent the chargers alone
    cause, which mu_p must exceed, and whether guard zones cover the plane
    (p_g = 0, where mu_s is left at that of p_g = 1)."""
    p = table
    pg = p_guard(p.lambda_p, p.r_g)
    covered = pg <= 0.0
    floor = _each(phi, p.alpha) * _pow(p.theta_p, 2.0 / p.alpha) * _pow(p.d_p, 2) * p.lambda_p
    return mu_primary(p.eps_p), mu_secondary(p.eps_s, np.where(covered, 1.0, pg)), floor, covered


def _curves(table: NetworkParams, mu_p, mu_s):
    """f1 and f2 of each row of a table (of the rows ``rows``, when given) as
    one function of the transmit power that returns both; their shared term
    (P_s / P_p)^(-2/alpha) is computed once per call."""
    p = table
    ph = _each(phi, p.alpha)
    c_p = _pow(p.theta_p, 2.0 / p.alpha) * _pow(p.d_p, 2) * ph
    c_s = _pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * ph
    # Loop-invariant parts, computed once: the bisection evaluates the
    # curves dozens of times per solve.
    power_p, lambda_p, expo = p.power_p, p.lambda_p, -2.0 / p.alpha
    head = (mu_p - p.theta_p * _pow(p.d_p, p.alpha) * p.noise / power_p) / c_p - lambda_p
    noise_s = p.theta_s * _pow(p.d_s, p.alpha) * p.noise

    def curves(power_s, rows=slice(None)):
        x = _pow(power_s / power_p[rows], expo[rows])
        return (head[rows] * x,
                (mu_s[rows] - noise_s[rows] / power_s) / c_s[rows] - lambda_p[rows] * x)

    return curves


def constraint_curves(params: NetworkParams):
    """Return (f1, f2): admissible active density versus transmit power.

    f1 caps the active density so the primary outage meets eps_p
    (decreasing in power); f2 so the secondary outage meets eps_s
    (increasing).  Their intersection is the optimum.
    """
    p = _table(params, {})
    mp, ms, _, covered = _budgets(p)
    _fail(covered, lambda k: InfeasibleError(_COVERED))
    _links(p, True, ("d_p", "d_s"))
    curves = _curves(p, mp, ms)
    return (lambda power_s: curves(power_s)[0].item(0),
            lambda power_s: curves(power_s)[1].item(0))


def _links(table: NetworkParams, rows, names: tuple[str, ...]) -> None:
    """The optimum divides by the link distances ``names``: refuse a zero one
    in ``rows``."""
    zero = functools.reduce(np.logical_or, [getattr(table, n) == 0 for n in names])
    _fail(rows & zero, lambda k: ValueError(
        f"the throughput optimum needs positive {' and '.join(names)}"))


def _gather(n: int, parts) -> OptimizationResult:
    """One table result of ``n`` rows from (rows, result) parts; a row in no
    part is infeasible."""
    def column(get, fill=math.nan, dtype=float):
        out = np.full(n, fill, dtype=dtype)
        for rows, res in parts:
            out[rows] = get(res)
        return out

    return OptimizationResult(
        **{f: column(lambda r, f=f: getattr(r, f))
           for f in ("p_s_star", "active_density", "throughput", "mu_s", "lambda_s_star",
                     "mu_p")},
        lambda_s_interval=(column(lambda r: r.lambda_s_interval[0]),
                           column(lambda r: r.lambda_s_interval[1])),
        m_at_optimum=column(lambda r: r.m_at_optimum, None, object),
        binding=column(lambda r: r.binding, "", object))


def _optimum(table: NetworkParams, feasible, p_s_star, active, mu_p, mu_s,
             binding: str) -> OptimizationResult:
    """The optimum at (p_s_star, active) in the feasible rows of a table, where
    the constraints ``binding`` bind, with the deployment density that
    realizes it (an interval where p_t is not exact)."""
    rows = np.flatnonzero(feasible)
    with _rows_of(rows):
        tp = transmission_probability(replace(_take(table, rows), power_s=p_s_star[rows]))
    active = active[rows]
    lam_star = np.where(tp.conservative > 0, active / tp.conservative, math.inf)
    lam_lower = np.where(tp.lower > 0, active / tp.lower, math.inf)
    res = OptimizationResult(
        p_s_star=p_s_star[rows], active_density=active,
        throughput=spatial_throughput(active, 1.0, table.theta_s[rows]),
        mu_p=mu_p[rows], mu_s=mu_s[rows], lambda_s_star=lam_star,
        lambda_s_interval=(np.where(tp.exact, np.nan, lam_star),
                           np.where(tp.exact, np.nan, lam_lower)),
        m_at_optimum=tp.m_slots, binding=np.full(len(rows), binding, dtype=object))
    return _gather(len(feasible), [(rows, res)])


def _infeasible(reasons):
    return functools.reduce(np.logical_or, (bad for bad, _ in reasons))


def _closed_form_rows(table: NetworkParams):
    """(result, reasons): the closed-form P1 optimum of each row of a table,
    and (rows, message(row)) for each way a row can be infeasible, in the
    order a single parameter set meets them."""
    p = table
    _fail(p.noise != 0.0, lambda k: ValueError(
        "closed form requires zero noise; use solve_p1_numeric"))
    mp, ms, floor, covered = _budgets(p)
    reasons = [(covered, lambda k: _COVERED),
               (mp <= floor, lambda k: (
                   f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp[k]:.6g} "
                   f"<= interference floor {floor[k]:.6g}"))]
    feasible = ~_infeasible(reasons)
    _links(p, feasible, ("d_p", "d_s"))
    p_s_star = (p.theta_s / p.theta_p) * _pow(p.d_s / p.d_p, p.alpha) \
        * _pow(ms / mp, -p.alpha / 2.0) * p.power_p
    active = ms * (mp - floor) / (_pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * mp
                                  * _each(phi, p.alpha))
    return _optimum(p, feasible, p_s_star, active, mp, ms, "primary+secondary"), reasons


def _numeric_rows(table: NetworkParams):
    """(result, reasons) as for :func:`_closed_form_rows`, by bisection: the
    rows step in lockstep, and each row stops at its own tolerance, so it
    visits the midpoints a solve of that row alone visits."""
    p = table
    mp, ms, floor, covered = _budgets(p)
    noise_term = p.theta_p * _pow(p.d_p, p.alpha) * p.noise / p.power_p
    reasons = [(covered, lambda k: _COVERED),
               (mp - noise_term <= floor, lambda k: (
                   f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp[k]:.6g} minus "
                   f"noise term {noise_term[k]:.6g} <= interference floor {floor[k]:.6g}"))]
    _links(p, ~_infeasible(reasons), ("d_p", "d_s"))
    curves = _curves(p, mp, ms)

    bracket = 1e-9 * p.power_p, p.power_p
    g_lo, g_hi = (np.subtract(*curves(end)) for end in bracket)
    reasons.append(((g_lo <= 0.0) | (g_hi >= 0.0), lambda k: (
        "constraints do not intersect in bracket "
        f"[{bracket[0][k]:.3e}, {bracket[1][k]:.3e}]: "
        f"f1-f2 at ends = {g_lo[k]:.6g}, {g_hi[k]:.6g}")))
    feasible = ~_infeasible(reasons)
    lo, hi = (end.copy() for end in bracket)
    run = np.flatnonzero(feasible)  # the rows still bisecting
    for _ in range(BISECT_MAX_ITER):
        if not len(run):
            break
        mid = 0.5 * (lo[run] + hi[run])
        up = np.subtract(*curves(mid, run)) > 0.0
        lo[run[up]] = mid[up]
        hi[run[~up]] = mid[~up]
        run = run[hi[run] - lo[run] > BISECT_RTOL * hi[run]]
    p_s_star = 0.5 * (lo + hi)
    active = curves(p_s_star)[0]
    return _optimum(p, feasible, p_s_star, active, mp, ms, "primary+secondary"), reasons


def _p2_rows(table: NetworkParams):
    """(result, reasons) as for :func:`_closed_form_rows`, for the
    dedicated-charger problem; no row is infeasible.  The power fills the
    battery in one slot (m = 1), where p_t is exact."""
    p = table
    _fail(p.r_g != 0.0, lambda k: ValueError(
        "the dedicated-charger problem has no guard zones; r_g must be 0"))
    _fail(p.noise != 0.0, lambda k: ValueError(
        "the dedicated-charger optimum is derived for zero noise"))
    _links(p, True, ("d_s",))
    mus = -_each(math.log1p, -p.eps_s)
    active = mus / (_pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * _each(phi, p.alpha))
    p_s_star = p.eta * p.power_p * _pow(p.r_h, -p.alpha)
    n = len(active)
    return _optimum(p, np.ones(n, dtype=bool), p_s_star, active, np.full(n, math.nan), mus,
                    "secondary"), []


def _solve_rows(table: NetworkParams):
    """(result, no reasons): each row of a table solved by the solver
    :func:`solve` picks for it.  Only a single parameter set reads reasons,
    and :func:`solve` hands one to its solver directly."""
    p = table
    p2 = p.r_g == 0
    numeric = ~p2 & (p.noise > 0)
    parts = []
    for mask, solver in ((p2, _p2_rows), (numeric, _numeric_rows),
                         (~p2 & ~numeric, _closed_form_rows)):
        rows = np.flatnonzero(mask)
        if len(rows):
            with _rows_of(rows):
                parts.append((rows, solver(_take(p, rows))[0]))
    return _gather(len(p.r_g), parts), []


def _solved(solver, params: NetworkParams) -> OptimizationResult:
    """``solver``'s result for a table; for one parameter set, its scalar
    result, or InfeasibleError with the reason the set meets first.

    Rows that are infeasible, or are refused, may divide by zero on the way;
    their values are not used.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if _is_table(params):
            return solver(params)[0]
        res, reasons = solver(_table(params, {}))
    for bad, message in reasons:
        if bad[0]:
            raise InfeasibleError(message(0))
    res = _scalar(res)
    return replace(res, lambda_s_interval=None if math.isnan(res.lambda_s_interval[0])
                   else res.lambda_s_interval, binding=tuple(res.binding.split("+")))


def solve_p1_closed_form(params: NetworkParams) -> OptimizationResult:
    """Closed-form optimum for the interference-limited case (zero noise)."""
    return _solved(_closed_form_rows, params)


def solve_p1_numeric(params: NetworkParams) -> OptimizationResult:
    """Intersection of the two constraint curves by bracketed bisection.

    f1 is decreasing and f2 increasing in the transmit power, so the root
    of f1 - f2 inside (0, power_p] is unique when it exists.  Agrees with
    the closed form to better than 1e-9 relative at zero noise.
    """
    return _solved(_numeric_rows, params)


def solve_p2(params: NetworkParams) -> OptimizationResult:
    """Optimum for the dedicated-charger setup (single outage constraint).

    The optimal active density is fixed by the receiver outage budget
    alone; any (power, density) pair realizing it is optimal, so the
    returned power is the canonical representative: the largest power still
    charged in one slot, which maximizes per-transmission energy without
    reducing the transmit probability.  Defined only without guard zones
    (r_g = 0), where the transmit probability has p_g = 1.
    """
    return _solved(_p2_rows, params)


def solve(params: NetworkParams) -> OptimizationResult:
    """The optimum by the solver that fits ``params``: P2 when r_g = 0 (no
    guard zones, dedicated chargers), else P1 in closed form at zero noise
    and by bisection otherwise; for a table, each row's own."""
    if _is_table(params):
        return _solved(_solve_rows, params)
    p2, noisy = params.r_g == 0, params.noise > 0
    return _solved(_p2_rows if p2 else _numeric_rows if noisy else _closed_form_rows, params)
