"""Throughput maximization of the harvesting network under outage limits.

Maximizes the spatial throughput over the secondary transmit power and
density subject to the primary and secondary outage constraints, either in
closed form (zero noise) or by Newton from the left on the two transformed
constraint curves (any noise).  Every solver also takes a table of
parameter sets (see :mod:`rfharvest.params`) and solves its rows at once:
Newton steps every row in lockstep, each row to its own stopping
test.  :func:`constraint_curves` takes one parameter set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import p_guard, phi, spatial_throughput, transmission_probability
from .params import NetworkParams, _each, _fail, _is_table, _pow, _scalar, _table, _take

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

NEWTON_MAX_ITER = 200
NEWTON_RTOL = 4 * np.finfo(float).eps


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


def _uncharged(table: NetworkParams):
    """(rows, message): the rows without chargers (lambda_p = 0), where no
    secondary harvests, so none transmits at any density."""
    return (table.lambda_p == 0, lambda k: (
        "no chargers (lambda_p = 0): no secondary harvests energy to transmit"))


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
    """(curves, (a, b, c)): f1 and f2 of each row of a table (of the rows
    ``rows``, when given) as one function of the transmit power that returns
    both and the slope of f1 - f2, their shared term x = (P_s / P_p)^(-2/alpha)
    computed once per call; and the coefficients of f1 - f2 = a x + b / P_s - c,
    where a > 0 on a feasible row, b >= 0 and c > 0."""
    p = table
    ph = _each(phi, p.alpha)
    c_p = _pow(p.theta_p, 2.0 / p.alpha) * _pow(p.d_p, 2) * ph
    c_s = _pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * ph
    # Loop-invariant parts, computed once: Newton evaluates the curves
    # several times per solve.
    power_p, lambda_p, expo = p.power_p, p.lambda_p, -2.0 / p.alpha
    a = (mu_p - p.theta_p * _pow(p.d_p, p.alpha) * p.noise / power_p) / c_p
    noise_s = p.theta_s * _pow(p.d_s, p.alpha) * p.noise
    b, c = noise_s / c_s, mu_s / c_s

    def curves(power_s, rows=slice(None)):
        x = _pow(power_s / power_p[rows], expo[rows])
        return ((a[rows] - lambda_p[rows]) * x,
                (mu_s[rows] - noise_s[rows] / power_s) / c_s[rows] - lambda_p[rows] * x,
                (expo[rows] * a[rows] * x - b[rows] / power_s) / power_s)

    return curves, (a, b, c)


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
    curves, _ = _curves(p, mp, ms)
    return (lambda power_s: curves(power_s)[0].item(0),
            lambda power_s: curves(power_s)[1].item(0))


def _links(table: NetworkParams, rows, names: tuple[str, ...]) -> None:
    """The optimum divides by the link distances ``names``: refuse a zero one
    in ``rows``."""
    zero = functools.reduce(np.logical_or, [getattr(table, n) == 0 for n in names])
    _fail(rows & zero, lambda k: ValueError(
        f"the throughput optimum needs positive {' and '.join(names)}"))


def _optimum(table: NetworkParams, feasible, p_s_star, active, mu_p, mu_s,
             binding) -> OptimizationResult:
    """The table result of located optima: in each feasible row, the optimum
    at (p_s_star, active), where the constraints ``binding`` bind, with the
    deployment density that realizes it (an interval where p_t is not
    exact); an infeasible row is NaN, with m_at_optimum None and binding ''."""
    rows = np.flatnonzero(feasible)
    tp = transmission_probability(replace(_take(table, rows), power_s=p_s_star[rows]))

    def scatter(values, fill=math.nan, dtype=float):
        out = np.full(len(feasible), fill, dtype=dtype)
        out[rows] = values
        return out

    lam_star = np.where(tp.conservative > 0, active[rows] / tp.conservative, math.inf)
    lam_lower = np.where(tp.lower > 0, active[rows] / tp.lower, math.inf)
    active = np.where(feasible, active, math.nan)
    return OptimizationResult(
        p_s_star=np.where(feasible, p_s_star, math.nan), active_density=active,
        throughput=spatial_throughput(active, 1.0, table.theta_s),
        mu_p=np.where(feasible, mu_p, math.nan), mu_s=np.where(feasible, mu_s, math.nan),
        lambda_s_star=scatter(lam_star),
        lambda_s_interval=(scatter(np.where(tp.exact, np.nan, lam_star)),
                           scatter(np.where(tp.exact, np.nan, lam_lower))),
        m_at_optimum=scatter(tp.m_slots, None, object),
        binding=np.where(feasible, binding, "").astype(object))


def _infeasible(reasons):
    return functools.reduce(np.logical_or, (bad for bad, _ in reasons))


def _closed_form_rows(table: NetworkParams):
    """(optimum, reasons): where the closed-form P1 optimum of each row of a
    table lies, as the arguments of :func:`_optimum` after the table, and
    (rows, message(row)) for each way a row can be infeasible, in the order
    a single parameter set meets them."""
    p = table
    _fail(p.noise != 0.0, lambda k: ValueError(
        "closed form requires zero noise; use solve_p1_numeric"))
    mp, ms, floor, covered = _budgets(p)
    reasons = [_uncharged(p), (covered, lambda k: _COVERED),
               (mp <= floor, lambda k: (
                   f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp[k]:.6g} "
                   f"<= interference floor {floor[k]:.6g}"))]
    feasible = ~_infeasible(reasons)
    _links(p, feasible, ("d_p", "d_s"))
    p_s_star = (p.theta_s / p.theta_p) * _pow(p.d_s / p.d_p, p.alpha) \
        * _pow(ms / mp, -p.alpha / 2.0) * p.power_p
    active = ms * (mp - floor) / (_pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * mp
                                  * _each(phi, p.alpha))
    return (feasible, p_s_star, active, mp, ms, "primary+secondary"), reasons


def _numeric_rows(table: NetworkParams):
    """(optimum, reasons) as for :func:`_closed_form_rows`, by Newton from the
    left: f1 - f2 is convex and decreasing in the power, so from a start
    where it is not negative each step rises towards the root, never past it.
    The rows step in lockstep, and each row stops at its own tolerance, so
    it visits the powers a solve of that row alone visits."""
    p = table
    mp, ms, floor, covered = _budgets(p)
    noise_term = p.theta_p * _pow(p.d_p, p.alpha) * p.noise / p.power_p
    reasons = [_uncharged(p), (covered, lambda k: _COVERED),
               (mp - noise_term <= floor, lambda k: (
                   f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp[k]:.6g} minus "
                   f"noise term {noise_term[k]:.6g} <= interference floor {floor[k]:.6g}"))]
    _links(p, ~_infeasible(reasons), ("d_p", "d_s"))
    curves, (a, b, c) = _curves(p, mp, ms)

    lo, hi = bracket = 1e-9 * p.power_p, p.power_p
    g_lo, g_hi = (np.subtract(*curves(end)[:2]) for end in bracket)
    reasons.append(((g_lo <= 0.0) | (g_hi >= 0.0), lambda k: (
        f"constraints do not intersect in bracket [{lo[k]:.3e}, {hi[k]:.3e}]: "
        f"f1-f2 at ends = {g_lo[k]:.6g}, {g_hi[k]:.6g}")))
    feasible = ~_infeasible(reasons)
    run = np.flatnonzero(feasible)  # the rows still stepping
    # Start where one term of f1 - f2 alone equals c, so f1 - f2 >= 0: at
    # zero noise, the root.  f1 - f2 < 0 at P_p gives c > a, so the power
    # cannot overflow there.
    p_s_star = hi.copy()
    p_s_star[run] = np.clip(np.maximum(p.power_p[run] * _pow(c[run] / a[run], -p.alpha[run] / 2),
                                       b[run] / c[run]), lo[run], hi[run])
    for _ in range(NEWTON_MAX_ITER):
        if not len(run):
            break
        f1, f2, slope = curves(p_s_star[run], run)
        rise = (f2 - f1) / slope
        p_s_star[run] = np.clip(p_s_star[run] + rise, lo[run], hi[run])
        # A row stops once a step rises by no more than a few ulps: at the root,
        # rounding in f1 - f2 can swing it between neighbouring floats.
        run = run[rise > NEWTON_RTOL * p_s_star[run]]
    active = curves(p_s_star)[0]
    return (feasible, p_s_star, active, mp, ms, "primary+secondary"), reasons


def _p2_rows(table: NetworkParams):
    """(optimum, reasons) as for :func:`_closed_form_rows`, for the
    dedicated-charger problem; only a row without chargers is infeasible.
    The power fills the battery in one slot (m = 1), where p_t is exact."""
    p = table
    _fail(p.r_g != 0.0, lambda k: ValueError(
        "the dedicated-charger problem has no guard zones; r_g must be 0"))
    _fail(p.noise != 0.0, lambda k: ValueError(
        "the dedicated-charger optimum is derived for zero noise"))
    reasons = [_uncharged(p)]
    feasible = ~_infeasible(reasons)
    _links(p, feasible, ("d_s",))
    mus = -_each(math.log1p, -p.eps_s)
    active = mus / (_pow(p.theta_s, 2.0 / p.alpha) * _pow(p.d_s, 2) * _each(phi, p.alpha))
    p_s_star = p.eta * p.power_p * _pow(p.r_h, -p.alpha)
    return (feasible, p_s_star, active, math.nan, mus, "secondary"), reasons


def _solve_rows(table: NetworkParams):
    """(optimum, reasons): where each row of a table has its optimum, located
    by the solver :func:`solve` picks for it.  The reasons are the last
    solver's; only a single parameter set reads them, and its one row has
    one solver."""
    p = table
    p2 = p.r_g == 0
    numeric = ~p2 & (p.noise > 0)
    n = len(p.r_g)
    optimum = [np.zeros(n, dtype=bool), *np.full((4, n), math.nan), np.full(n, "", object)]
    reasons = []
    for mask, solver in ((p2, _p2_rows), (numeric, _numeric_rows),
                         (~p2 & ~numeric, _closed_form_rows)):
        rows = np.flatnonzero(mask)
        if len(rows):
            part, reasons = solver(_take(p, rows))
            for column, values in zip(optimum, part):
                column[rows] = values
    return optimum, reasons


def _solved(solver, params: NetworkParams) -> OptimizationResult:
    """The optimum ``solver`` locates, for a table; for one parameter set, its
    scalar result, or InfeasibleError with the reason the set meets first.

    Rows that are infeasible, or are refused, may divide by zero on the way;
    their values are not used.
    """
    table = params if _is_table(params) else _table(params, {})
    with np.errstate(divide="ignore", invalid="ignore"):
        optimum, reasons = solver(table)
        res = _optimum(table, *optimum)
    if table is params:
        return res
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
    """Intersection of the two constraint curves by Newton from the left.

    f1 is decreasing and f2 increasing in the transmit power, so the root
    of f1 - f2 inside [1e-9 power_p, power_p] is unique when it exists;
    f1 - f2 is also convex, so Newton steps from the left of the root rise
    to it.  At zero noise it starts at the closed form, and agrees with it
    to 1e-13 relative.
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
    and by Newton from the left otherwise; for a table, each row's own."""
    return _solved(_solve_rows, params)
