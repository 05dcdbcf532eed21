"""Network parameter types, validation, and charging geometry.

All quantities are linear-scale in consistent abstract units (no dB, no
meters); a slot has unit duration, so per-slot energy and power coincide.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields

__all__ = [
    "NetworkParams",
    "ChargingGeometry",
    "ParameterError",
    "RegimeWarning",
    "validate",
    "charging_geometry",
    "params_from_dict",
    "params_to_dict",
    "load_params",
]

# Ratio above which a "much smaller than" modeling assumption triggers a
# RegimeWarning: warn when small/large > 1/5.
REGIME_RATIO = 0.2


class ParameterError(ValueError):
    """One or more network parameters violate an invariant.

    ``problems`` lists one human-readable diagnostic per violation.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RegimeWarning(UserWarning):
    """A separation-of-scales assumption is stretched; results may degrade."""


@dataclass(frozen=True)
class NetworkParams:
    """All physical and protocol constants of the two coexisting networks.

    lambda_p_total  deployment density of primary transmitters (per unit area)
    access_prob     per-slot access probability of each primary transmitter
    lambda_s        density of secondary (harvesting) transmitters
    power_p         primary transmit power (also the charging source power)
    power_s         secondary transmit power
    alpha           path-loss exponent, must exceed 2
    eta             harvesting efficiency, in (0, 1)
    r_g             guard-zone radius around each active primary transmitter
                    (0 disables guard zones, as in the dedicated-charger setup)
    r_h             harvesting-zone radius; r_h < r_g whenever r_g > 0
    d_p, d_s        fixed transmitter-receiver link distances
    noise           receiver noise power (sigma^2)
    theta_p, theta_s  SINR targets of the two networks
    eps_p, eps_s    outage-probability constraints, in (0, 1)
    """

    lambda_p_total: float
    lambda_s: float
    power_p: float
    power_s: float
    alpha: float
    eta: float
    r_g: float
    r_h: float
    d_p: float
    d_s: float
    theta_p: float
    theta_s: float
    eps_p: float
    eps_s: float
    access_prob: float = 1.0
    noise: float = 0.0

    @property
    def lambda_p(self) -> float:
        """Density of *active* primary transmitters (independent thinning)."""
        return self.access_prob * self.lambda_p_total


@dataclass(frozen=True)
class ChargingGeometry:
    """Derived charging quantities for a parameter set.

    m_slots is the worst-case number of harvesting slots needed to fill the
    battery.  h1 (defined for m_slots >= 2) is the radius inside which one
    slot fills the battery; h2 (defined for m_slots >= 3) the radius inside
    which one slot provides at least half the capacity.
    """

    m_slots: int
    h1: float | None = None
    h2: float | None = None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate(params: NetworkParams, *, warn: bool = True) -> NetworkParams:
    """Check every parameter invariant, raising ParameterError on failure.

    Collects one diagnostic per violated invariant instead of stopping at
    the first.  Separation-of-scales assumptions (d_p << r_g,
    lambda_p_total << lambda_s, power_p >> power_s, pi r_h^2 lambda_p << 1)
    are only warnings so that exploratory sweeps are not blocked.

    Returns the parameters unchanged when everything holds.
    """
    p = params
    problems = []

    for name in ("lambda_p_total", "lambda_s", "power_p", "power_s",
                 "r_g", "r_h", "d_p", "d_s", "noise"):
        v = getattr(p, name)
        if not _finite(v) or v < 0:
            problems.append(f"{name} must be finite and non-negative, got {v!r}")

    if not _finite(p.access_prob) or not 0.0 <= p.access_prob <= 1.0:
        problems.append(f"access_prob must lie in [0, 1], got {p.access_prob!r}")
    if not _finite(p.alpha) or p.alpha <= 2:
        problems.append("alpha must exceed 2")
    if not _finite(p.eta) or not 0.0 < p.eta < 1.0:
        problems.append(f"eta must lie in (0, 1), got {p.eta!r}")
    for name in ("theta_p", "theta_s"):
        v = getattr(p, name)
        if not _finite(v) or v <= 0:
            problems.append(f"{name} must be positive, got {v!r}")
    for name in ("eps_p", "eps_s"):
        v = getattr(p, name)
        if not _finite(v) or not 0.0 < v < 1.0:
            problems.append(f"{name} must lie in (0, 1), got {v!r}")

    if _finite(p.r_g) and p.r_g > 0:
        if _finite(p.r_h) and p.r_h >= p.r_g:
            problems.append(
                f"harvesting radius r_h={p.r_h!r} must be smaller than guard radius r_g={p.r_g!r}")
        if _finite(p.d_p) and p.d_p >= p.r_g:
            problems.append(
                f"primary link distance d_p={p.d_p!r} must be smaller than r_g={p.r_g!r}")

    if problems:
        raise ParameterError(problems)

    if warn:
        _warn_regime(p)
    return p


def _warn_regime(p: NetworkParams) -> None:
    checks = []
    if p.r_g > 0:
        checks.append(("d_p", p.d_p, "r_g", p.r_g))
    if p.lambda_s > 0:
        checks.append(("lambda_p_total", p.lambda_p_total, "lambda_s", p.lambda_s))
    if p.power_p > 0:
        checks.append(("power_s", p.power_s, "power_p", p.power_p))
    checks.append(("pi*r_h^2*lambda_p", math.pi * p.r_h**2 * p.lambda_p, "unity", 1.0))
    for small_name, small, large_name, large in checks:
        if small > REGIME_RATIO * large:
            warnings.warn(
                f"{small_name}={small:g} is not much smaller than {large_name} ({large:g}); "
                "analytic approximations assume clear separation",
                RegimeWarning, stacklevel=3)


def charging_geometry(params: NetworkParams) -> ChargingGeometry:
    """Slot count and zone radii implied by the charging threshold.

    The minimum per-slot harvest (at the harvesting-zone edge) is
    eta * power_p * r_h**-alpha, so the worst-case number of charging slots
    is m = ceil(power_s / that minimum).  A power exactly on a threshold is
    assigned to the smaller m (ceiling semantics); a 1e-12 relative backoff
    absorbs float noise at the boundaries.
    """
    p = params
    if p.power_s <= 0:
        raise ParameterError(["ST power must be positive"])
    if p.r_h <= 0:
        raise ParameterError(["r_h must be positive to define charging geometry"])
    threshold = p.eta * p.power_p * p.r_h ** -p.alpha
    if threshold <= 0:
        raise ParameterError(["per-slot harvest is zero; power_p and eta must be positive"])
    m = max(1, math.ceil((p.power_s / threshold) * (1.0 - 1e-12)))
    h1 = h2 = None
    if m >= 2:
        h1 = (p.power_s / (p.eta * p.power_p)) ** (-1.0 / p.alpha)
    if m >= 3:
        h2 = (p.power_s / (2.0 * p.eta * p.power_p)) ** (-1.0 / p.alpha)
    radii = [r for r in (h1, h2, p.r_h) if r is not None]
    if any(a >= b for a, b in zip(radii, radii[1:])):
        raise ParameterError([
            f"charging radii {radii} (h1, h2 if m >= 3, r_h) must increase; "
            f"power_s={p.power_s!r} is too close to a charging threshold at alpha={p.alpha!r}"])
    return ChargingGeometry(m_slots=m, h1=h1, h2=h2)


_FIELDS = {f.name for f in fields(NetworkParams)}
_REQUIRED = {f.name for f in fields(NetworkParams) if f.default is MISSING}


def params_from_dict(data: dict, *, warn: bool = True) -> NetworkParams:
    """Build parameters from a mapping with exactly the documented keys.

    Unknown keys are an error so that typos in sweep scripts fail loudly.
    """
    unknown = sorted(set(data) - _FIELDS)
    if unknown:
        raise ParameterError([f"unknown parameter(s): {', '.join(unknown)}"])
    missing = sorted(_REQUIRED - set(data))
    if missing:
        raise ParameterError([f"missing parameter(s): {', '.join(missing)}"])
    return validate(NetworkParams(**{k: float(v) for k, v in data.items()}), warn=warn)


def params_to_dict(params: NetworkParams) -> dict:
    return {f.name: getattr(params, f.name) for f in fields(NetworkParams)}


def load_params(path, *, warn: bool = True) -> NetworkParams:
    """Read a JSON configuration document holding one parameter set."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError(["configuration document must be a JSON object"])
    return params_from_dict(data, warn=warn)
