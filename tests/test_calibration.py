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

from rfharvest import SimConfig, charging_geometry, estimate_p_t, transmission_probability

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


def test_transmit_probability_is_calibrated():
    z = []
    for seed, (p, exact) in enumerate(_pt_points(60)):
        cfg = SimConfig(window_side=max(20.0 * p.r_g, 60.0), n_slots=100,
                        n_replications=REPLICATIONS, master_seed=seed)
        est = estimate_p_t(p, cfg)
        z.append((est.mean - exact) / (est.half_width / 3.0))  # half-width is 3 s / sqrt(R)
    z = np.array(z)
    t = stats.t(REPLICATIONS - 1)
    ks = stats.kstest(z, t.cdf)
    covered = np.mean(np.abs(z) <= t.ppf(0.99865))
    print(f"p_t calibration over {len(z)} points: KS {ks.statistic:.3f} (p = {ks.pvalue:.3g}), "
          f"mean z {z.mean():+.2f}, share of |z| <= t_0.99865,{REPLICATIONS - 1} {covered:.3f}")
    assert ks.pvalue >= KS_LEVEL
