import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rfharvest import (InfeasibleError, mu_primary, mu_secondary, p_guard, phi,
                       solve, solve_p1_closed_form, solve_p1_numeric, solve_p2,
                       spatial_throughput, tau_primary, tau_secondary, tau_wit,
                       transmission_probability, wit_outage)

from conftest import make_params

# Reference solution of the worked example (theta=5/5, d=0.5/0.5, alpha=4,
# P_p=2, lambda_p=0.01, r_g=3, eps_p=0.2, eps_s=0.3), frozen from a 40-digit
# evaluation of the closed forms cross-checked by root-finding f1 = f2.
WORKED = dict(mu_p=0.22314355131420976, mu_s=0.6394182827618138,
              p_s_star=0.24357268142019839, active=0.20313262877219669,
              throughput=0.5250902280490398)
P2_ACTIVE = 0.12929384208021997
P2_THROUGHPUT = 0.33421973335153166


def worked_params(**kw):
    base = dict(power_p=2.0, r_g=3.0, r_h=1.0, eps_p=0.2, eps_s=0.3)
    base.update(kw)
    return make_params(**base)


def test_worked_example_closed_form():
    res = solve_p1_closed_form(worked_params())
    assert res.mu_p == pytest.approx(WORKED["mu_p"], rel=1e-12)
    assert res.mu_s == pytest.approx(WORKED["mu_s"], rel=1e-12)
    assert res.p_s_star == pytest.approx(WORKED["p_s_star"], rel=1e-9)
    assert res.active_density == pytest.approx(WORKED["active"], rel=1e-9)
    assert res.throughput == pytest.approx(WORKED["throughput"], rel=1e-9)
    assert res.binding == ("primary", "secondary")


def test_worked_example_against_in_test_root_finding():
    # Independent oracle: write out both constraint curves and intersect
    # them with Brent's method, then compare against the closed form.
    p = worked_params()
    f = phi(p.alpha)
    pg = math.exp(-math.pi * p.r_g ** 2 * p.lambda_p)
    mp = -math.log(1.0 - p.eps_p)
    ms = -math.log((1.0 - p.eps_s) * pg)
    c_p = math.sqrt(p.theta_p) * p.d_p ** 2 * f
    c_s = math.sqrt(p.theta_s) * p.d_s ** 2 * f

    def f1(ps):
        return (mp / c_p - p.lambda_p) * (ps / p.power_p) ** -0.5

    def f2(ps):
        return ms / c_s - p.lambda_p * (ps / p.power_p) ** -0.5

    root = brentq(lambda x: f1(x) - f2(x), 1e-6, p.power_p, xtol=1e-15, rtol=1e-15)
    res = solve_p1_closed_form(p)
    assert res.p_s_star == pytest.approx(root, rel=1e-9)
    assert res.active_density == pytest.approx(f1(root), rel=1e-9)


def test_vanishing_primary_budget_is_infeasible():
    with pytest.raises(InfeasibleError, match="unsatisfiable"):
        solve_p1_closed_form(worked_params(eps_p=1e-9))


def test_feasibility_edge():
    p = worked_params()
    floor = phi(4.0) * math.sqrt(5.0) * 0.25
    lam_crit = mu_primary(p.eps_p) / floor
    with pytest.raises(InfeasibleError):
        solve_p1_closed_form(dataclasses.replace(p, lambda_p_total=lam_crit * (1 + 1e-9)))
    res = solve_p1_closed_form(dataclasses.replace(p, lambda_p_total=lam_crit * (1 - 1e-6)))
    assert res.active_density > 0.0


def test_optimal_power_grows_as_primaries_thin_out():
    dense = solve_p1_closed_form(worked_params()).p_s_star
    sparse = solve_p1_closed_form(worked_params(lambda_p_total=0.001)).p_s_star
    assert sparse > dense


def test_closed_form_rejects_noise():
    with pytest.raises(ValueError, match="zero noise"):
        solve_p1_closed_form(worked_params(noise=1e-6))


def _random_feasible_draws(n, seed=2024):
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        r_g = rng.uniform(2.0, 6.0)
        p = make_params(alpha=rng.uniform(2.5, 6.0),
                        eta=rng.uniform(0.05, 0.5),
                        r_g=r_g, r_h=rng.uniform(0.3, 0.8) * r_g,
                        d_p=rng.uniform(0.1, 0.4) * r_g,
                        d_s=rng.uniform(0.2, 1.0),
                        lambda_p_total=rng.uniform(1e-4, 0.03),
                        power_p=rng.uniform(0.5, 4.0),
                        theta_p=rng.uniform(1.0, 10.0),
                        theta_s=rng.uniform(1.0, 10.0),
                        eps_p=rng.uniform(0.05, 0.4),
                        eps_s=rng.uniform(0.05, 0.4))
        try:
            res = solve_p1_closed_form(p)
        except InfeasibleError:
            continue
        if res.p_s_star <= 0.95 * p.power_p:  # stay inside the bisection bracket
            draws.append((p, res))
    return draws


def test_numeric_matches_closed_form_on_random_draws():
    for p, closed in _random_feasible_draws(100):
        num = solve_p1_numeric(p)
        assert num.p_s_star == pytest.approx(closed.p_s_star, rel=1e-9)
        assert num.active_density == pytest.approx(closed.active_density, rel=1e-9)
        assert num.throughput == pytest.approx(closed.throughput, rel=1e-9)


def test_numeric_continuous_in_noise():
    p = worked_params()
    base = solve_p1_numeric(p).p_s_star
    small = solve_p1_numeric(dataclasses.replace(p, noise=1e-6)).p_s_star
    tiny = solve_p1_numeric(dataclasses.replace(p, noise=1e-9)).p_s_star
    assert small == pytest.approx(base, rel=1e-3)
    assert abs(tiny - base) < abs(small - base)


def test_root_residual_is_tiny():
    from rfharvest import constraint_curves
    for noise in (0.0, 1e-4):
        p = worked_params(noise=noise)
        res = solve_p1_numeric(p)
        f1, f2 = constraint_curves(p)
        assert abs(f1(res.p_s_star) - f2(res.p_s_star)) <= 1e-10 * f1(res.p_s_star)


def test_both_constraints_bind_at_optimum():
    for p in (worked_params(), worked_params(noise=2e-4, eps_p=0.3)):
        res = solve_p1_numeric(p)
        at_opt = dataclasses.replace(p, power_s=res.p_s_star)
        assert tau_primary(at_opt, res.active_density) == pytest.approx(res.mu_p, abs=1e-10)
        assert tau_secondary(at_opt, res.active_density) == pytest.approx(res.mu_s, abs=1e-10)


def test_active_density_ignores_harvesting_radius():
    base = worked_params()
    results = [solve_p1_closed_form(dataclasses.replace(base, r_h=rh))
               for rh in (0.5, 1.0, 1.5, 2.0)]
    actives = {r.active_density for r in results}
    assert len(actives) == 1
    lam_stars = [r.lambda_s_star for r in results]
    assert len(set(lam_stars)) == len(lam_stars)


def test_required_deployment_density_diverges_for_sparse_primaries():
    lams = [0.008, 0.004, 0.002, 0.001, 0.0005]
    stars = [solve_p1_closed_form(worked_params(lambda_p_total=l)).lambda_s_star
             for l in lams]
    assert all(a < b for a, b in zip(stars, stars[1:]))


def test_interval_reported_for_slow_charging_optimum():
    p = worked_params(eta=0.01)  # P_s* needs many charging slots
    res = solve_p1_closed_form(p)
    assert res.m_at_optimum > 2
    assert res.lambda_s_interval is not None
    lo, hi = res.lambda_s_interval
    assert lo < hi
    assert res.lambda_s_star == lo  # conservative endpoint (largest p_t)
    tp = transmission_probability(dataclasses.replace(p, power_s=res.p_s_star))
    assert lo == pytest.approx(res.active_density / tp.upper, rel=1e-12)


def test_throughput_identity():
    res = solve_p1_closed_form(worked_params())
    assert res.throughput == pytest.approx(
        res.active_density * math.log2(1.0 + 5.0), abs=1e-12)


def test_no_intersection_reports_diagnostics():
    p = worked_params(eps_p=0.9, eps_s=0.01, lambda_p_total=0.02)
    with pytest.raises(InfeasibleError, match="do not intersect"):
        solve_p1_numeric(p)


# -- dedicated-charger problem -----------------------------------------------------


def test_p2_reference_values():
    res = solve_p2(make_params(r_g=0.0))
    assert res.active_density == pytest.approx(P2_ACTIVE, rel=1e-12)
    assert res.throughput == pytest.approx(P2_THROUGHPUT, rel=1e-12)
    assert res.binding == ("secondary",)
    assert res.m_at_optimum == 1


def test_p2_family_members_share_throughput():
    p = make_params(r_g=0.0)
    res = solve_p2(p)
    for factor in (0.25, 0.5, 1.5):  # other members of the optimal family
        ps = res.p_s_star * factor
        tp = transmission_probability(dataclasses.replace(p, power_s=ps))
        pt = tp.value if tp.exact else tp.upper
        lam = res.active_density / pt
        assert spatial_throughput(pt, lam, p.theta_s) == pytest.approx(
            res.throughput, rel=1e-12)


def test_p2_active_density_independent_of_chargers():
    base = make_params(r_g=0.0)
    vals = set()
    for lam in np.linspace(0.002, 0.1, 15):
        for rh in (0.5, 1.0, 1.5):
            p = dataclasses.replace(base, lambda_p_total=float(lam), r_h=rh)
            vals.add(solve_p2(p).active_density)
    assert len(vals) == 1


def test_p2_outage_hits_budget_exactly():
    p = make_params(r_g=0.0)
    res = solve_p2(p)
    at_opt = dataclasses.replace(p, power_s=res.p_s_star)
    out = wit_outage(at_opt, res.active_density)
    assert out.probability == pytest.approx(p.eps_s, abs=1e-10)
    assert tau_wit(at_opt, res.active_density) == pytest.approx(res.mu_s, abs=1e-12)


def test_p2_rejects_noise():
    with pytest.raises(ValueError, match="zero noise"):
        solve_p2(make_params(r_g=0.0, noise=1e-5))


def test_p2_rejects_guard_zones():
    with pytest.raises(ValueError, match="r_g must be 0"):
        solve_p2(make_params(r_g=3.0))


def test_p2_canonical_power_is_single_slot_edge():
    p = make_params(r_g=0.0, eta=0.1, power_p=1.0, r_h=1.0)
    res = solve_p2(p)
    assert res.p_s_star == pytest.approx(0.1, rel=1e-12)


def test_solve_dispatches_on_guard_radius_and_noise():
    for p, solver in ((make_params(r_g=0.0), solve_p2),
                      (make_params(), solve_p1_closed_form),
                      (make_params(noise=1e-3), solve_p1_numeric)):
        assert solve(p) == solver(p)
    # an infeasible point of each branch fails with that branch's own message
    for kw, solver, message in (
            (dict(eps_p=1e-9), solve_p1_closed_form, "interference floor"),
            (dict(eps_p=1e-9, noise=1e-3), solve_p1_numeric, "minus noise term"),
            (dict(power_p=2.0, eps_p=0.9, eps_s=0.01, lambda_p_total=0.02, noise=1e-6),
             solve_p1_numeric, "do not intersect in bracket"),
            (dict(lambda_p_total=30.0), solve_p1_closed_form, "p_g = 0"),
            (dict(lambda_p_total=30.0, noise=1e-3), solve_p1_numeric, "p_g = 0")):
        p = make_params(**kw)
        with pytest.raises(InfeasibleError, match=message) as own:
            solver(p)
        with pytest.raises(InfeasibleError) as dispatched:
            solve(p)
        assert str(dispatched.value) == str(own.value)


def test_mu_transforms():
    assert mu_primary(0.2) == pytest.approx(-math.log(0.8), rel=1e-14)
    assert mu_secondary(0.3, p_guard(0.01, 3.0)) == pytest.approx(
        WORKED["mu_s"], rel=1e-12)
