"""Closed-form zone, transmission, outage, and throughput expressions.

Every function here is a pure formula evaluation on validated parameters
(the conditional secondary outage adds a fixed-order quadrature over the
guard hole); the Monte Carlo counterparts live in :mod:`rfharvest.sim`.
The zone, transmission and outage forms also take a table of parameter
sets (see :mod:`rfharvest.params`) and then return columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (ChargingGeometry, NetworkParams, _distinct, _each, _fail, _pow,
                     _rowwise, charging_geometry)

__all__ = [
    "ZoneProbabilities",
    "TransmissionProbability",
    "OutageResult",
    "phi",
    "p_guard",
    "p_harvest",
    "zone_probabilities",
    "pt_single_slot",
    "pt_double_slot",
    "pt_multi_bounds",
    "transmission_probability",
    "tau_primary",
    "tau_secondary",
    "tau_wit",
    "outage_primary",
    "outage_secondary",
    "outage_secondary_paper",
    "wit_outage",
    "spatial_throughput",
]


def phi(alpha: float) -> float:
    """Interference constant of the Rayleigh-fading shot-noise field.

        phi(alpha) = pi * (2/alpha) * Gamma(2/alpha) * Gamma(1 - 2/alpha)

    Finite only for alpha > 2; phi(4) = pi^2 / 2.  Decreases monotonically
    toward pi as alpha grows.
    """
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 (Gamma(1 - 2/alpha) pole at alpha = 2)")
    return math.pi * (2.0 / alpha) * math.gamma(2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def p_guard(lambda_p_active: float, r_g: float) -> float:
    """Probability that a uniformly placed point is outside every guard zone.

    Void probability of a disk of radius r_g under a Poisson field of
    active primary transmitters: exp(-pi r_g^2 lambda_p).  Without active
    transmitters it is 1 for any r_g, also where pi r_g^2 overflows to inf
    and inf * 0 is NaN, which ``fmin`` drops.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = np.fmin(-math.pi * r_g * r_g * lambda_p_active, 0.0)
    return _each(math.exp, exponent)


def p_harvest(lambda_p_active: float, r_h: float) -> float:
    """Probability that at least one active charger lies within r_h."""
    return -_each(math.expm1, -math.pi * r_h * r_h * lambda_p_active)


@dataclass(frozen=True)
class ZoneProbabilities:
    """Per-slot zone-membership probabilities of a typical transmitter.

    p_g        outside all guard zones
    p_h        inside at least one harvesting zone
    p_1        inside the full-charge core (nearest charger within h1)
    p_2        two-slot annulus probability, p_1 + p_2 = p_h (m_slots = 2)
    p2_prime   half-charge annulus h1..h2 (m_slots > 2)
    p_3        outer annulus h2..r_h (m_slots > 2)

    Fields for regions a given charging geometry does not use are exact zero.
    """

    p_g: float
    p_h: float
    p_1: float = 0.0
    p_2: float = 0.0
    p2_prime: float = 0.0
    p_3: float = 0.0


@_rowwise
def zone_probabilities(params: NetworkParams,
                       geometry: ChargingGeometry | None = None) -> ZoneProbabilities:
    """Void-probability split of the harvesting zone for the given geometry."""
    if geometry is None:
        geometry = charging_geometry(params)
    lam = params.lambda_p
    m = geometry.m_slots
    a_h1 = -math.pi * _pow(geometry.h1, 2) * lam
    e_h1 = _each(math.exp, a_h1)
    e_h2 = _each(math.exp, -math.pi * _pow(geometry.h2, 2) * lam)
    e_rh = _each(math.exp, -math.pi * _pow(params.r_h, 2) * lam)
    p1 = -_each(math.expm1, a_h1)
    two, three = m >= 2, m >= 3
    return ZoneProbabilities(p_g=p_guard(lam, params.r_g), p_h=p_harvest(lam, params.r_h),
                             p_1=np.where(two, p1, 0.0), p_2=np.where(m == 2, e_h1 - e_rh, 0.0),
                             p2_prime=np.where(three, e_h1 - e_h2, 0.0),
                             p_3=np.where(three, e_h2 - e_rh, 0.0))


# -- closed-form transmission probabilities ---------------------------------

@_rowwise
def pt_single_slot(p_h: float, p_g: float) -> float:
    """Stationary transmit probability when one slot always fills the battery."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_h <= 0.0, 0.0, p_h * p_g / (p_h + p_g))


@_rowwise
def pt_double_slot(p_h: float, p_2: float, p_g: float) -> float:
    """Stationary transmit probability for two-slot charging."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_h <= 0.0, 0.0, p_h * p_g / (p_h + p_g * (1.0 + p_2 / p_h)))


def pt_multi_bounds(p_1: float, p2_prime: float, p_3: float,
                    p_g: float) -> tuple[float, float]:
    """(lower, upper) bounds on the transmit probability for m_slots > 2.

    The upper bound credits the outer annulus with a half charge, the lower
    bound with none, so each is the two-slot chain on the merged zones; both
    reduce to the exact expressions when the outer regions are empty.
    """
    return (pt_double_slot(p_1 + p2_prime, p2_prime, p_g),
            pt_double_slot(p_1 + p2_prime + p_3, p2_prime + p_3, p_g))


@dataclass(frozen=True)
class TransmissionProbability:
    """Exact value or interval for the stationary transmit probability.

    ``value`` is set only when the chain is exact (m_slots <= 2); otherwise
    consumers choose an endpoint of [lower, upper], and where one value must
    stand for the interval they take :attr:`conservative`.  For a table,
    ``value`` is NaN in the rows where it is not set.
    """

    m_slots: int
    lower: float
    upper: float
    value: float | None

    _NAN_IS_NONE = ("value",)

    @property
    def exact(self) -> bool:
        """Whether ``value`` is set; for a table, a column of them."""
        if isinstance(self.value, np.ndarray):
            return ~np.isnan(self.value)
        return self.value is not None

    @property
    def conservative(self) -> float:
        """The upper endpoint (the value when exact): most interference, fewest
        deployed nodes; every single-valued consumer of p_t takes it."""
        return self.upper


@_rowwise
def transmission_probability(params: NetworkParams,
                             geometry: ChargingGeometry | None = None,
                             zones: ZoneProbabilities | None = None) -> TransmissionProbability:
    """Stationary probability that a typical secondary transmitter transmits.

    Exact for single- and double-slot charging; an interval otherwise.
    With r_g = 0 the guard-exit probability is exactly 1, so this is also
    the transmit probability of the dedicated-charger setup.  Callers that
    already hold the charging geometry and zone probabilities of ``params``
    may pass them to skip recomputing them.
    """
    if geometry is None:
        geometry = charging_geometry(params)
    z = zone_probabilities(params, geometry) if zones is None else zones
    m = geometry.m_slots
    exact = m <= 2
    v = np.where(m == 1, pt_single_slot(z.p_h, z.p_g), pt_double_slot(z.p_h, z.p_2, z.p_g))
    lo, hi = pt_multi_bounds(z.p_1, z.p2_prime, z.p_3, z.p_g)
    return TransmissionProbability(m_slots=m, lower=np.where(exact, v, lo),
                                   upper=np.where(exact, v, hi),
                                   value=np.where(exact, v, np.nan))


# -- outage ------------------------------------------------------------------

@dataclass(frozen=True)
class OutageResult:
    """An outage probability together with its exponent argument tau.

    ``clamped`` marks results of the paper's conditional secondary form
    (:func:`outage_secondary_paper`) that were clipped into [0, 1]; that
    approximation degrades when the power separation between the networks
    is weak.  Every other outage function leaves it False.
    """

    tau: float
    probability: float
    clamped: bool = False


def _tau(params: NetworkParams, interference: float, theta: float, d: float,
         power: float) -> float:
    """Outage exponent of a link of length ``d``, SINR target ``theta`` and
    transmit power ``power`` against an interfering density ``interference``
    (scaled to the link's power) and the noise."""
    p = params
    tau = interference * _pow(theta, 2.0 / p.alpha) * _pow(d, 2) * _each(phi, p.alpha)
    return tau + theta * _pow(d, p.alpha) * p.noise / power


def tau_primary(params: NetworkParams, active_density: float) -> float:
    """Exponent of the primary-receiver outage probability.

    ``active_density`` is the density of simultaneously transmitting
    secondaries (p_t * lambda_s).
    """
    p = params
    interference = (p.lambda_p
                    + active_density * _pow(p.power_s / p.power_p, 2.0 / p.alpha))
    return _tau(p, interference, p.theta_p, p.d_p, p.power_p)


def outage_primary(params: NetworkParams, active_density: float) -> OutageResult:
    tau = tau_primary(params, active_density)
    return OutageResult(tau=tau, probability=-_each(math.expm1, -tau))


def tau_secondary(params: NetworkParams, active_density: float) -> float:
    """Exponent of the unconditioned secondary-receiver outage probability."""
    p = params
    interference = (p.lambda_p * _pow(p.power_s / p.power_p, -2.0 / p.alpha)
                    + active_density)
    return _tau(p, interference, p.theta_s, p.d_s, p.power_s)


# -- the guard hole of the conditional secondary outage ---------------------
#
# Given that the transmitter's guard disk B(x_t, r_g) holds no active
# charger, the chargers form a Poisson field outside that disk, and the
# Laplace functional of their interference at the receiver (the origin)
# lacks the disk's share
#
#     H = integral over B(x_t, r_g) of dx / (1 + |x|^alpha / c),   c = s P_p.
#
# In polar coordinates around the receiver, the circle of radius r lies
# inside the disk for r <= r_g - d and meets it in an arc of angle
# Theta(r) = 2 arccos((r^2 + d^2 - r_g^2) / (2 r d)) for |r_g - d| < r < r_g + d,
# so H = 2 pi c^(2/alpha) D((r_g - d) / c^(1/alpha)) + the integral of
# r Theta(r) / (1 + r^alpha / c) over that annulus, where
# D(x) = int_0^x t dt / (1 + t^alpha).  Substituting r = m - h cos u makes
# the annulus integrand analytic in u on [0, pi], and one fixed 128-node
# Gauss-Legendre rule in u takes it for every row.  D is a Stieltjes
# integral in t^alpha: a six-node Gauss-Jacobi rule takes it on (0, x) for
# x <= 1 and on the tail beyond x otherwise (relative error about 1e-9 for
# alpha from 2.3 to 8).  Each rule is one tridiagonal eigen-solve (Golub &
# Welsch, Math. Comp. 23(106), 1969): D's once per alpha, the annulus rule
# once.  Against adaptive quadrature for r_g 0.3-6, alpha 2.1-8 and c from
# e^-6 to e^6, H is within 1e-12 relative with the receiver outside the
# disk (d up to 12 r_g; worst of 300 rows 2.5e-14), and inside it the D
# rule bounds the error, about 6e-10 (tests/test_analytics.py).  The rows
# are taken one alpha at a time, in blocks of _HOLE_BLOCK rows (each
# (rows, nodes) temporary 512 KiB).  Every step is elementwise or a sum
# along a row, and numpy's arccos and power give the same bits in every
# lane, so a row's value depends on its own inputs alone.

_JACOBI_NODES = 6
_ANNULUS_NODES = 128
_HOLE_BLOCK = 512


def _gauss_jacobi(a: float, n: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss rule for int_0^1 w^a f(w) dw, a > -1,
    from the recurrence p_(k+1) = (x - c_k) p_k - e_k p_(k-1) of the weight's
    monic orthogonal polynomials (Golub-Welsch)."""
    c = [0.5 + 0.5 * (a / (a + 2.0) if k == 0 else a * a / ((2 * k + a) * (2 * k + a + 2.0)))
         for k in range(n)]
    e = [k * k * (k + a) ** 2 / ((2 * k + a) ** 2 * (2 * k + a + 1.0) * (2 * k + a - 1.0))
         for k in range(1, n)]
    # The nodes are the eigenvalues of the Jacobi matrix, c_k on its diagonal
    # and sqrt(e_k) below it (eigh reads the lower triangle only); each weight
    # is int_0^1 w^a dw = 1 / (a + 1) times its eigenvector's squared first entry.
    nodes, vectors = np.linalg.eigh(np.diag(c) + np.diag(list(map(math.sqrt, e)), -1))
    return list(zip(nodes.tolist(), (vectors[0] ** 2 / (a + 1.0)).tolist()))


@functools.lru_cache(maxsize=32)
def _radial_rule(alpha: float):
    """D's Gauss-Jacobi pairs on (0, x] and on the tail, and D(inf)."""
    head = [(v, w / alpha) for v, w in _gauss_jacobi(2.0 / alpha - 1.0, _JACOBI_NODES)]
    tail = [(v, w / alpha) for v, w in _gauss_jacobi(-2.0 / alpha, _JACOBI_NODES)]
    return head, tail, math.pi / (alpha * math.sin(2.0 * math.pi / alpha))


@functools.cache
def _annulus_rule() -> np.ndarray:
    """Gauss-Legendre cos u and weight * sin u on u in [0, pi], as two rows."""
    return np.array([(math.cos(math.pi * t), math.pi * w * math.sin(math.pi * t))
                     for t, w in _gauss_jacobi(0.0, _ANNULUS_NODES)]).T


def _disk_share(x: np.ndarray, alpha: float) -> np.ndarray:
    """D(x) = int_0^x t dt / (1 + t^alpha) for a column x."""
    head, tail, d_inf = _radial_rule(alpha)
    with np.errstate(over="ignore"):  # t^alpha = inf leaves only D(inf)
        z = x ** alpha
    near = far = 0.0
    # z <= 1: (x^2/alpha) int_0^1 v^(2/alpha - 1) / (1 + z v) dv, with v = (t/x)^alpha
    for v, w in head:
        near = near + w / (1.0 + z * v)
    # z > 1: D(inf) minus the tail (x^2/alpha) int_0^1 v^(-2/alpha) / (z + v) dv,
    # v = (x/t)^alpha
    for v, w in tail:
        far = far + w / (z + v)
    y = np.minimum(x, 1.0)  # x itself where z <= 1; x * x may overflow elsewhere
    return np.where(z <= 1.0, y * y * near, d_inf - x * (x * far))


def _hole_integral(d: np.ndarray, r_g: np.ndarray, alpha: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """H of each row: the kernel 1 / (1 + |x|^alpha / c) integrated over
    B(x_t, r_g), |x_t| = d."""
    _fail((d < 0.0) | (r_g < 0.0) | (c < 0.0), lambda k: ValueError(
        "the guard hole needs non-negative r_g, d_s and s * power_p"))
    cos_u, weight = _annulus_rule()
    hole = np.zeros(len(d))
    live = (r_g > 0.0) & (c > 0.0)
    for a in set(alpha[live].tolist()):
        group = np.flatnonzero(live & (alpha == a))
        for k in range(0, len(group), _HOLE_BLOCK):
            i = group[k:k + _HOLE_BLOCK]
            r0 = _pow(c[i], 1.0 / a)
            hole[i] = 2.0 * math.pi * r0 * r0 * _disk_share(np.maximum(r_g[i] - d[i], 0.0) / r0, a)
            i = i[d[i] > 0.0]  # d = 0: a centered disk, no annulus
            di, gi = d[i][:, None], r_g[i][:, None]
            r = np.maximum(di, gi) - np.minimum(di, gi) * cos_u
            arc = np.arccos(np.clip((r + (di * di - gi * gi) / r) * (0.5 / di), -1.0, 1.0))
            with np.errstate(over="ignore"):  # r^alpha = inf: the kernel is 0
                power = r ** a
            kernel = weight * r * arc / (1.0 + power * (1.0 / c[i])[:, None])
            hole[i] += 2.0 * np.minimum(d[i], r_g[i]) * kernel.sum(axis=1)
    return hole


def _lens_area(d: float, r: float) -> float:
    """Overlap area of two disks of radius r whose centers are d apart."""
    if r <= 0.0 or d >= 2.0 * r:
        return 0.0
    return 2.0 * r * r * math.acos(d / (2.0 * r)) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)


@_rowwise
def outage_secondary(params: NetworkParams, active_density: float) -> OutageResult:
    """Secondary outage conditioned on the transmitter being outside guard zones.

    probability = 1 - exp(-tau_c).  With the receiver at the origin, the
    transmitter at distance d_s, s = theta_s d_s^alpha / P_s and
    a = ``active_density``,

        tau_c = lambda_p [phi(alpha) (s P_p)^(2/alpha) - H]
                + a exp(lambda_p L(d_s)) phi(alpha) (s P_s)^(2/alpha) + s N.

    The first term is the Laplace functional of the chargers outside the
    empty guard disk B(x_t, r_g); H is that disk's share of the full-plane
    integral.  The second treats the transmitting secondaries as a uniform
    Poisson field whose density is their conditional density at the
    receiver: a point at distance d_s from x_t is clear of chargers with
    probability p_g exp(lambda_p L(d_s)) rather than p_g, where L is the
    overlap of the two guard disks.  That field still ignores the charge
    clustering of neighbouring transmitters: the form is within the
    simulation's half-widths at acceptance C5's points, but above it on
    average over random points (ROADMAP item 12).  The paper's form is
    :func:`outage_secondary_paper`.  ``clamped`` is always False.
    """
    p = params
    lam = p.lambda_p
    _fail(p_guard(lam, p.r_g) <= 0.0,
          lambda k: ValueError("guard zones cover the plane (p_g = 0)"))
    # without primaries the guard disk changes nothing, so r_g = 0 stands
    # in for a radius whose disk's area may overflow
    r_g = np.where(lam > 0.0, p.r_g, 0.0)
    s = p.theta_s * _pow(p.d_s, p.alpha) / p.power_s
    ph = _each(phi, p.alpha)
    tau = (active_density * _each(math.exp, lam * _each(_lens_area, p.d_s, r_g))
           * ph * _pow(s * p.power_s, 2.0 / p.alpha) + s * p.noise)
    c = s * p.power_p
    # H of each distinct row, gathered back to the rows
    cols = (p.d_s, r_g, p.alpha, c)
    first, inverse = _distinct(cols) or (slice(None), slice(None))
    h = _hole_integral(*[col[first] for col in cols])[inverse]
    hole = lam * (ph * _pow(c, 2.0 / p.alpha) - h)
    tau = np.where(lam > 0.0, tau + hole, tau)
    return OutageResult(tau=tau, probability=-_each(math.expm1, -tau),
                        clamped=np.zeros(len(tau), dtype=bool))


def outage_secondary_paper(params: NetworkParams, active_density: float) -> OutageResult:
    """The paper's conditional secondary outage, with its clamp.

    probability = (1 - exp(-tau_s) - (1 - p_g)) / p_g, clamped into [0, 1]
    with ``clamped`` set when clipping occurred.  The construction treats
    any guard-zone violation as a certain outage, which is accurate only
    when power_p >> power_s; :func:`outage_secondary` conditions exactly.
    The throughput optimizer's secondary constraint (``mu_secondary``)
    derives from this form.
    """
    p = params
    pg = p_guard(p.lambda_p, p.r_g)
    if pg <= 0.0:
        raise ValueError("guard zones cover the plane (p_g = 0)")
    tau = tau_secondary(params, active_density)
    raw = (-math.expm1(-tau) - (1.0 - pg)) / pg
    prob = min(max(raw, 0.0), 1.0)
    return OutageResult(tau=tau, probability=prob, clamped=prob != raw)


def tau_wit(params: NetworkParams, active_density: float) -> float:
    """Outage exponent when chargers occupy a dedicated band (no cross-talk)."""
    p = params
    return _tau(p, active_density, p.theta_s, p.d_s, p.power_s)


def wit_outage(params: NetworkParams, active_density: float) -> OutageResult:
    tau = tau_wit(params, active_density)
    return OutageResult(tau=tau, probability=-math.expm1(-tau))


def spatial_throughput(p_t: float, lambda_s: float, theta_s: float) -> float:
    """Area throughput (bps/Hz/unit-area) of the transmitting population."""
    return p_t * lambda_s * _each(math.log2, 1.0 + theta_s)
