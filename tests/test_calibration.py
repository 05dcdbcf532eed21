"""Calibration across the parameter space: the closed forms against the
simulator at random valid points, not at a few figure points.

At each point z = (mean - closed form) / (s / sqrt(R)) over R replication
means; a correct form with an honest estimator gives z ~ Student t_(R-1),
tested with a one-sample KS test at a level fixed before the run (Cook,
Gelman & Rubin, J. Comput. Graph. Stat. 15(3), 2006; Talts et al.,
arXiv:1804.06788).  The share of |z| <= t_(0.99865, R-1) is the coverage of
a 99.73% Student-t interval.
"""

import numpy as np
from scipy import stats

from rfharvest import (SimConfig, charging_geometry, estimate_p_t, outage_curve, tau_secondary,
                       transmission_probability)

from conftest import make_params

REPLICATIONS = 8
KS_LEVEL = 1e-3


def _pt_points(n: int, seed: int = 2026):
    """(params, exact p_t) at n random points with m_slots <= 2 and p_t >= 1e-3."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        r_h = rng.uniform(0.5, 2.0)
        r_g = 0.0 if rng.random() < 0.5 else r_h * rng.uniform(1.2, 4.0)
        p = make_params(r_h=r_h, r_g=r_g, lambda_p_total=rng.uniform(0.005, 0.1),
                        access_prob=rng.uniform(0.3, 1.0), lambda_s=rng.uniform(0.05, 0.5),
                        power_p=rng.uniform(0.5, 3.0), power_s=rng.uniform(0.005, 0.3),
                        alpha=rng.uniform(2.5, 5.0), eta=rng.uniform(0.05, 0.5),
                        d_p=0.1 * r_h)
        exact = transmission_probability(p).value
        if charging_geometry(p).m_slots <= 2 and exact >= 1e-3:
            points.append((p, exact))
    return points


def _secondary_points(n: int, seed: int = 11):
    """(params, closed form 1 - exp(-tau_secondary)) at n random points with
    m_slots <= 2 and the closed form in [0.01, 0.99].

    The band is fixed before the run: near 0 or 1 every replication can see
    the same share of outages, and a zero half-width gives no z (unfiltered,
    one point of this generator sits at 0.9997 with zero half-width)."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        r_h = rng.uniform(0.5, 1.5)
        p = make_params(r_h=r_h, r_g=r_h * rng.uniform(1.5, 4.0),
                        lambda_p_total=rng.uniform(0.005, 0.05), lambda_s=rng.uniform(0.05, 0.4),
                        power_s=rng.uniform(0.02, 0.5), alpha=rng.uniform(3.0, 5.0), eta=0.1,
                        theta_s=10.0 ** rng.uniform(0.0, 2.0), d_s=rng.uniform(0.2, 1.0),
                        d_p=0.3)
        if charging_geometry(p).m_slots > 2:
            continue
        closed = -np.expm1(-tau_secondary(p, transmission_probability(p).value * p.lambda_s))
        if 0.01 <= closed <= 0.99:
            points.append((p, closed))
    return points


def _check(name: str, z: list) -> None:
    """The KS test of ``z`` against t_(R-1) at ``KS_LEVEL``, with its report."""
    z = np.array(z)
    t = stats.t(REPLICATIONS - 1)
    ks = stats.kstest(z, t.cdf)
    covered = np.mean(np.abs(z) <= t.ppf(0.99865))
    print(f"{name} calibration over {len(z)} points: KS {ks.statistic:.3f} "
          f"(p = {ks.pvalue:.3g}), mean z {z.mean():+.2f}, "
          f"share of |z| <= t_0.99865,{REPLICATIONS - 1} {covered:.3f}")
    assert ks.pvalue >= KS_LEVEL


def test_transmit_probability_is_calibrated():
    z = []
    for seed, (p, exact) in enumerate(_pt_points(60)):
        cfg = SimConfig(window_side=max(20.0 * p.r_g, 60.0), n_slots=100,
                        n_replications=REPLICATIONS, master_seed=seed)
        est = estimate_p_t(p, cfg)
        z.append((est.mean - exact) / (est.half_width / 3.0))  # half-width is 3 s / sqrt(R)
    _check("p_t", z)


def test_unconditioned_secondary_outage_is_calibrated():
    # The probe's link without the guard-zone rejection against the exponent
    # form, at the default window
    z = []
    for seed, (p, closed) in enumerate(_secondary_points(40)):
        cfg = SimConfig(n_slots=150, n_replications=REPLICATIONS, master_seed=seed)
        (est,) = outage_curve(p, cfg, "secondary-unconditioned", [p.theta_s])
        z.append((est.mean - closed) / (est.half_width / 3.0))
    _check("unconditioned secondary outage", z)
