"""Throughput maximization of the harvesting network under outage limits.

Maximizes the spatial throughput over the secondary transmit power and
density subject to the primary and secondary outage constraints, either in
closed form (zero noise) or by bracketed bisection on the two transformed
constraint curves (any noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analytics import p_guard, phi, spatial_throughput, transmission_probability
from .params import NetworkParams

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
    """

    p_s_star: float
    active_density: float
    throughput: float
    mu_s: float
    lambda_s_star: float
    mu_p: float | None = None
    lambda_s_interval: tuple[float, float] | None = None
    m_at_optimum: int | None = None
    binding: tuple[str, ...] = ()


def mu_primary(eps_p: float) -> float:
    """Primary outage budget transformed to an exponent bound."""
    return -math.log1p(-eps_p)


def mu_secondary(eps_s: float, p_g: float) -> float:
    """Secondary outage budget transformed through the paper's conditional form.

    Inverts ``outage_secondary_paper``: its outage equals eps_s exactly when
    tau_s = -log((1 - eps_s) p_g).  Both P1 solvers constrain the secondary
    outage through this exponent bound, so their optimum is the paper's.
    The guard-hole form (``outage_secondary``) is never below the paper's.
    """
    return -math.log((1.0 - eps_s) * p_g)


def constraint_curves(params: NetworkParams):
    """Return (f1, f2): admissible active density versus transmit power.

    f1 caps the active density so the primary outage meets eps_p
    (decreasing in power); f2 so the secondary outage meets eps_s
    (increasing).  Their intersection is the optimum.
    """
    p = params
    ph = phi(p.alpha)
    mp, ms, _ = _budgets(p)
    c_p = p.theta_p ** (2.0 / p.alpha) * p.d_p ** 2 * ph
    c_s = p.theta_s ** (2.0 / p.alpha) * p.d_s ** 2 * ph
    # Loop-invariant parts, computed once: the bisection calls f1 and f2
    # hundreds of times per solve.
    power_p, lambda_p, expo = p.power_p, p.lambda_p, -2.0 / p.alpha
    head = (mp - p.theta_p * p.d_p ** p.alpha * p.noise / power_p) / c_p - lambda_p
    noise_s = p.theta_s * p.d_s ** p.alpha * p.noise

    def f1(power_s: float) -> float:
        return head * (power_s / power_p) ** expo

    def f2(power_s: float) -> float:
        return (ms - noise_s / power_s) / c_s - lambda_p * (power_s / power_p) ** expo

    return f1, f2


def _budgets(params: NetworkParams) -> tuple[float, float, float]:
    """(mu_p, mu_s, floor): both outage budgets as exponent bounds, and the
    primary exponent the chargers alone cause, which mu_p must exceed."""
    p = params
    ph = phi(p.alpha)
    pg = p_guard(p.lambda_p, p.r_g)
    if pg <= 0.0:
        raise InfeasibleError("guard zones cover the plane (p_g = 0)")
    floor = ph * p.theta_p ** (2.0 / p.alpha) * p.d_p ** 2 * p.lambda_p
    return mu_primary(p.eps_p), mu_secondary(p.eps_s, pg), floor


def _p1_result(params: NetworkParams, p_s_star: float, active: float,
               mu_p: float, mu_s: float) -> OptimizationResult:
    """The P1 optimum at (p_s_star, active), with the deployment density that
    realizes it (an interval when p_t is not exact)."""
    tp = transmission_probability(replace(params, power_s=p_s_star))
    lam_star = active / tp.conservative if tp.conservative > 0 else math.inf
    lam_interval = None
    if not tp.exact:
        lam_interval = (lam_star, active / tp.lower if tp.lower > 0 else math.inf)
    return OptimizationResult(
        p_s_star=p_s_star, active_density=active,
        throughput=spatial_throughput(active, 1.0, params.theta_s),
        mu_p=mu_p, mu_s=mu_s, lambda_s_star=lam_star, lambda_s_interval=lam_interval,
        m_at_optimum=tp.m_slots, binding=("primary", "secondary"))


def solve_p1_closed_form(params: NetworkParams) -> OptimizationResult:
    """Closed-form optimum for the interference-limited case (zero noise)."""
    p = params
    if p.noise != 0.0:
        raise ValueError("closed form requires zero noise; use solve_p1_numeric")
    mp, ms, floor = _budgets(p)
    if mp <= floor:
        raise InfeasibleError(
            f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp:.6g} "
            f"<= interference floor {floor:.6g}")
    ph = phi(p.alpha)
    p_s_star = (p.theta_s / p.theta_p) * (p.d_s / p.d_p) ** p.alpha \
        * (ms / mp) ** (-p.alpha / 2.0) * p.power_p
    active = ms * (mp - floor) / (p.theta_s ** (2.0 / p.alpha) * p.d_s ** 2 * mp * ph)
    return _p1_result(p, p_s_star, active, mp, ms)


def solve_p1_numeric(params: NetworkParams) -> OptimizationResult:
    """Intersection of the two constraint curves by bracketed bisection.

    f1 is decreasing and f2 increasing in the transmit power, so the root
    of f1 - f2 inside (0, power_p] is unique when it exists.  Agrees with
    the closed form to better than 1e-9 relative at zero noise.
    """
    p = params
    mp, ms, floor = _budgets(p)
    noise_term = p.theta_p * p.d_p ** p.alpha * p.noise / p.power_p
    if mp - noise_term <= floor:
        raise InfeasibleError(
            f"primary constraint unsatisfiable at lambda_s=0: mu_p={mp:.6g} minus "
            f"noise term {noise_term:.6g} <= interference floor {floor:.6g}")
    f1, f2 = constraint_curves(p)

    lo, hi = 1e-9 * p.power_p, p.power_p
    g_lo, g_hi = f1(lo) - f2(lo), f1(hi) - f2(hi)
    if g_lo <= 0.0 or g_hi >= 0.0:
        raise InfeasibleError(
            "constraints do not intersect in bracket "
            f"[{lo:.3e}, {hi:.3e}]: f1-f2 at ends = {g_lo:.6g}, {g_hi:.6g}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f1(mid) - f2(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_RTOL * hi:
            break
    p_s_star = 0.5 * (lo + hi)
    return _p1_result(p, p_s_star, f1(p_s_star), mp, ms)


def solve_p2(params: NetworkParams) -> OptimizationResult:
    """Optimum for the dedicated-charger setup (single outage constraint).

    The optimal active density is fixed by the receiver outage budget
    alone; any (power, density) pair realizing it is optimal, so the
    returned power is the canonical representative: the largest power still
    charged in one slot, which maximizes per-transmission energy without
    reducing the transmit probability.  Defined only without guard zones
    (r_g = 0), where the transmit probability has p_g = 1.
    """
    p = params
    if p.r_g != 0.0:
        raise ValueError("the dedicated-charger problem has no guard zones; r_g must be 0")
    if p.noise != 0.0:
        raise ValueError("the dedicated-charger optimum is derived for zero noise")
    mus = -math.log1p(-p.eps_s)
    active = mus / (p.theta_s ** (2.0 / p.alpha) * p.d_s ** 2 * phi(p.alpha))
    p_s_star = p.eta * p.power_p * p.r_h ** -p.alpha
    tp = transmission_probability(replace(p, power_s=p_s_star))
    lam_star = active / tp.value if tp.value and tp.value > 0 else math.inf
    return OptimizationResult(
        p_s_star=p_s_star, active_density=active,
        throughput=spatial_throughput(active, 1.0, p.theta_s),
        mu_p=None, mu_s=mus, lambda_s_star=lam_star, lambda_s_interval=None,
        m_at_optimum=tp.m_slots, binding=("secondary",))


def solve(params: NetworkParams) -> OptimizationResult:
    """The optimum by the solver that fits ``params``: P2 when r_g = 0 (no
    guard zones, dedicated chargers), else P1 in closed form at zero noise
    and by bisection otherwise."""
    if params.r_g == 0:
        return solve_p2(params)
    if params.noise > 0:
        return solve_p1_numeric(params)
    return solve_p1_closed_form(params)
