import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest import (build_chain, charging_geometry, outage_primary,
                       outage_secondary, outage_secondary_paper, p_guard, p_harvest,
                       phi, pt_double_slot, pt_multi_bounds, pt_single_slot,
                       spatial_throughput, tau_primary, tau_secondary, tau_wit,
                       transmission_probability, wit_outage, zone_probabilities)
from rfharvest.analytics import _gauss_jacobi, _hole_integral, _lens_area
from rfharvest.params import _table

from conftest import make_params, replace_params, valid_params

# High-precision reference values (40-digit Gamma/exp evaluation).
PHI_3 = 7.597625010352075
PG_001_3 = 0.7537132119564671
PG_001_4 = 0.6049225627642709
PH_001_1 = 0.03092757369518936
PH_001_15 = 0.06824542890062356
P1_001_SQRT2 = 0.06089863257570735
PT_SINGLE_FIG5 = 0.06132674200003106


def test_phi_quarter_power_law_is_pinned():
    assert phi(4.0) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)


def test_phi_cubic_matches_high_precision_gamma():
    assert phi(3.0) == pytest.approx(PHI_3, rel=1e-13)


def test_phi_rejects_pole():
    with pytest.raises(ValueError):
        phi(2.0)
    with pytest.raises(ValueError):
        phi(1.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(2.05, 40.0))
def test_phi_reflection_identity(alpha):
    # Gamma(x) Gamma(1-x) = pi / sin(pi x) gives an independent route
    expected = 2.0 * math.pi ** 2 / (alpha * math.sin(2.0 * math.pi / alpha))
    assert phi(alpha) == pytest.approx(expected, rel=1e-12)


def test_phi_decreases_toward_pi():
    grid = [2.2, 2.5, 3.0, 4.0, 6.0, 10.0, 30.0, 100.0]
    vals = [phi(a) for a in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > math.pi


def test_guard_probability_values():
    assert p_guard(0.01, 3.0) == pytest.approx(PG_001_3, rel=1e-14)
    assert p_guard(0.0, 3.0) == 1.0
    assert p_guard(0.01, 0.0) == 1.0


def test_guard_probability_of_a_disk_whose_area_overflows():
    # pi r_g^2 is inf: no guard exit with primaries, a certain one without
    # (inf * 0 is NaN), for scalars and columns alike, and without a warning
    assert p_guard(0.01, 1e300) == 0.0 and p_guard(0.0, 1e300) == 1.0
    assert p_guard(np.array([0.01, 0.0]), np.full(2, 1e300)).tolist() == [0.0, 1.0]


def test_harvest_probability_values():
    assert p_harvest(0.01, 1.0) == pytest.approx(PH_001_1, rel=1e-14)
    assert p_harvest(0.0, 1.0) == 0.0
    grid = [p_harvest(0.01, r) for r in np.linspace(0.5, 25.0, 40)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert grid[-1] < 1.0
    assert p_harvest(0.01, 1e4) == 1.0  # saturates


def test_zone_probabilities_single_slot_regions_zero():
    p = make_params(power_s=0.05, power_p=2.0, r_h=1.0)  # M = 1
    z = zone_probabilities(p)
    assert (z.p_1, z.p_2, z.p2_prime, z.p_3) == (0.0, 0.0, 0.0, 0.0)
    assert z.p_h > 0.0


def test_zone_probabilities_two_slot_split():
    p = make_params(power_s=0.05, power_p=2.0, r_h=1.5)  # h1 = sqrt(2)
    z = zone_probabilities(p)
    assert z.p_1 == pytest.approx(P1_001_SQRT2, rel=1e-13)
    assert z.p_1 + z.p_2 == pytest.approx(z.p_h, abs=1e-12)
    assert z.p2_prime == 0.0 and z.p_3 == 0.0


def test_zone_probabilities_three_slot_partition():
    p = make_params(power_s=0.1, power_p=2.0, r_h=1.5)
    z = zone_probabilities(p)
    assert z.p_1 + z.p2_prime + z.p_3 == pytest.approx(z.p_h, abs=1e-12)
    assert z.p_2 == 0.0


@settings(max_examples=150, deadline=None)
@given(valid_params())
def test_partition_identity_holds_everywhere(p):
    z = zone_probabilities(p)
    m = charging_geometry(p).m_slots
    if m == 2:
        assert z.p_1 + z.p_2 == pytest.approx(z.p_h, abs=1e-12)
    elif m >= 3:
        assert z.p_1 + z.p2_prime + z.p_3 == pytest.approx(z.p_h, abs=1e-12)


def test_transmit_probability_single_slot_value():
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=0.03)
    tp = transmission_probability(p)
    assert tp.exact and tp.m_slots == 1
    assert tp.value == pytest.approx(PT_SINGLE_FIG5, rel=1e-13)


def test_double_slot_value_below_single_slot():
    base = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=0.03)
    single = transmission_probability(base).value
    double = transmission_probability(dataclasses.replace(base, power_s=0.05))
    assert double.m_slots == 2
    assert double.value < single


def test_no_primaries_means_no_transmissions():
    p = make_params(lambda_p_total=0.0)
    tp = transmission_probability(p)
    assert tp.value == 0.0 and tp.lower == 0.0 and tp.upper == 0.0
    assert transmission_probability(make_params(lambda_p_total=0.0, r_g=0.0)).value == 0.0


def test_interval_for_slow_charging():
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=0.12)
    tp = transmission_probability(p)
    assert not tp.exact and tp.m_slots > 2
    assert 0.0 < tp.lower < tp.upper


def test_transmit_probability_agrees_with_chains():
    for ps in (0.03, 0.05, 0.12):
        p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=ps)
        z = zone_probabilities(p)
        tp = transmission_probability(p)
        if tp.exact:
            kind = "single-slot" if tp.m_slots == 1 else "double-slot"
            assert tp.value == pytest.approx(build_chain(kind, z).p_transmit, rel=1e-12)
        else:
            assert tp.lower == pytest.approx(build_chain("multi-lower", z).p_transmit, rel=1e-12)
            assert tp.upper == pytest.approx(build_chain("multi-upper", z).p_transmit, rel=1e-12)


def test_bounds_are_tight_in_exact_regimes():
    lo, hi = pt_multi_bounds(0.2, 0.0, 0.0, 0.7)
    assert lo == pytest.approx(pt_single_slot(0.2, 0.7), rel=1e-12)
    assert hi == pytest.approx(pt_single_slot(0.2, 0.7), rel=1e-12)
    lo, hi = pt_multi_bounds(0.12, 0.08, 0.0, 0.7)
    assert lo == pytest.approx(pt_double_slot(0.2, 0.08, 0.7), rel=1e-12)
    assert hi == pytest.approx(pt_double_slot(0.2, 0.08, 0.7), rel=1e-12)


def test_transmit_probability_nonincreasing_in_guard_radius():
    vals = []
    for rg in np.linspace(1.5, 8.0, 14):
        vals.append(transmission_probability(make_params(r_g=float(rg))).value)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wit_single_slot_half_harvest():
    assert pt_single_slot(0.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_no_guard_zones_means_certain_guard_exit():
    assert zone_probabilities(make_params(r_g=0.0)).p_g == 1.0


@given(valid_params())
@settings(max_examples=200, deadline=None)
def test_dedicated_charger_pt_matches_chains_with_certain_guard_exit(p):
    # r_g = 0 is the dedicated-charger setup: the same chains with p_g = 1
    p = replace_params(p, r_g=0.0)
    z = zone_probabilities(p)
    tp = transmission_probability(p)
    assert z.p_g == 1.0
    if tp.m_slots <= 2:
        kind = "single-slot" if tp.m_slots == 1 else "double-slot"
        assert tp.value == pytest.approx(build_chain(kind, z).p_transmit, rel=1e-12, abs=1e-12)
    else:
        assert tp.lower == pytest.approx(build_chain("multi-lower", z).p_transmit,
                                         rel=1e-12, abs=1e-12)
        assert tp.upper == pytest.approx(build_chain("multi-upper", z).p_transmit,
                                         rel=1e-12, abs=1e-12)


def test_wit_increasing_in_charger_density():
    vals = [transmission_probability(make_params(r_g=0.0, lambda_p_total=float(l))).value
            for l in np.linspace(0.005, 0.3, 20)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_wit_double_slot_continuous_at_regime_edge():
    assert pt_double_slot(0.3, 1e-13, 1.0) == pytest.approx(0.3 / 1.3, rel=1e-10)


# -- outage ------------------------------------------------------------------


def test_tau_primary_zero_without_interference_or_noise():
    p = make_params(lambda_p_total=0.0)
    out = outage_primary(p, 0.0)
    assert out.tau == 0.0 and out.probability == 0.0


def test_tau_primary_power_scaling_structure():
    p = make_params(power_p=1.0)
    active = 0.01
    base_only = tau_primary(p, 0.0)
    st_part = tau_primary(p, active) - base_only
    p2 = dataclasses.replace(p, power_p=2.0)
    st_part_doubled = tau_primary(p2, active) - tau_primary(p2, 0.0)
    assert tau_primary(p2, 0.0) == pytest.approx(base_only, rel=1e-12)
    assert st_part_doubled == pytest.approx(st_part * 2.0 ** (-2.0 / p.alpha), rel=1e-12)


def test_tau_exponents_keep_their_operation_order():
    # Each exponent, written out in full, must give the same bits
    p, a = make_params(noise=1e-3, power_s=0.03, d_s=0.7), 0.01
    two = 2.0 / p.alpha
    assert tau_primary(p, a) == ((p.lambda_p + a * (p.power_s / p.power_p) ** two)
                                 * p.theta_p ** two * p.d_p ** 2 * phi(p.alpha)
                                 + p.theta_p * p.d_p ** p.alpha * p.noise / p.power_p)
    assert tau_secondary(p, a) == ((p.lambda_p * (p.power_s / p.power_p) ** -two + a)
                                   * p.theta_s ** two * p.d_s ** 2 * phi(p.alpha)
                                   + p.theta_s * p.d_s ** p.alpha * p.noise / p.power_s)
    assert tau_wit(p, a) == (a * p.theta_s ** two * p.d_s ** 2 * phi(p.alpha)
                             + p.theta_s * p.d_s ** p.alpha * p.noise / p.power_s)


@pytest.mark.parametrize("tau", [tau_primary, tau_secondary, tau_wit])
def test_tau_exponents_take_tables(tau):
    p = make_params(noise=1e-3)
    rows = [(0.01, 0.5, 4.0), (0.05, 1.0, 3.0), (0.02, 2.0, 5.5)]
    table = _table(p, dict(zip(("power_s", "d_s", "alpha"), map(list, zip(*rows)))))
    want = [tau(replace_params(p, power_s=s, d_s=d, alpha=al), 0.01) for s, d, al in rows]
    assert tau(table, 0.01).tolist() == want


@settings(max_examples=100, deadline=None)
@given(valid_params(), st.floats(0.0, 0.05), st.floats(0.0, 0.05))
def test_outage_monotone_in_active_density(p, a1, a2):
    lo, hi = sorted((a1, a2))
    assert tau_primary(p, lo) <= tau_primary(p, hi)
    assert outage_primary(p, lo).probability <= outage_primary(p, hi).probability
    assert tau_primary(p, lo) >= 0.0 and tau_secondary(p, lo) >= 0.0


def test_secondary_collapses_to_dedicated_band_form():
    p = make_params(lambda_p_total=0.0, r_g=0.0)
    for active in (0.0, 0.004, 0.02):
        a = outage_secondary(p, active)
        b = wit_outage(p, active)
        assert a.probability == pytest.approx(b.probability, rel=1e-12, abs=1e-15)
        assert not a.clamped


def test_secondary_clamped_and_flagged_out_of_regime():
    # strong conditioning term: large guard zones, weak interference
    p = make_params(lambda_p_total=0.02, r_g=6.0, lambda_s=0.01)
    out = outage_secondary_paper(p, 1e-6)
    assert out.probability == 0.0 and out.clamped


def test_guard_zones_covering_plane_rejected():
    p = make_params(lambda_p_total=2.0, r_g=16.0, access_prob=1.0)
    with pytest.raises(ValueError, match="guard zones cover the plane"):
        outage_secondary(p, 0.01)


# -- guard-hole conditional secondary outage -----------------------------------


RULE_ALPHAS = (2.3, 3.0, 4.0, 5.5, 8.0)


@pytest.mark.parametrize("a,n", [(2.0 / alpha - 1.0, 6) for alpha in RULE_ALPHAS]
                         + [(-2.0 / alpha, 6) for alpha in RULE_ALPHAS]
                         + [(0.0, n) for n in (4, 7, 64, 128)])
def test_gauss_jacobi_rule_is_exact_to_degree_2n_minus_1(a, n):
    # The guard hole's rules: D's head and tail weights at n = 6, and the
    # Gauss-Legendre orders of the annulus up to the 128-node cap
    x, w = np.array(_gauss_jacobi(a, n)).T
    assert len(x) == n and ((0.0 < x) & (x < 1.0)).all() and (w > 0.0).all()
    for k in range(2 * n):
        assert math.fsum(w * x ** k) == pytest.approx(1.0 / (a + k + 1.0), rel=1e-13, abs=0)


_DENSE_X, _DENSE_W = np.polynomial.legendre.leggauss(200)
_DENSE_COS = np.cos(math.pi * (_DENSE_X + 1.0))


def _dense_hole(d, r_g, alpha, c):
    """Reference H: 200 x 200 Gauss-Legendre product rule in polar coordinates
    about the transmitter, which sits at distance d from the receiver."""
    rho, w_rho = 0.5 * r_g * (_DENSE_X + 1.0), 0.5 * r_g * _DENSE_W
    r2 = d * d + rho[:, None] ** 2 + 2.0 * d * rho[:, None] * _DENSE_COS[None, :]
    return float(w_rho @ (rho[:, None] / (1.0 + r2 ** (alpha / 2.0) / c)) @ (math.pi * _DENSE_W))


HOLE_GRID = [(alpha, r_g, d_s, theta)
             for alpha in (3.0, 4.0, 5.5) for r_g in (1.5, 3.0, 6.0)
             for d_s in (0.2, 0.5, 0.9, 2.0) for theta in (1.0, 20.0, 500.0)]


@pytest.mark.parametrize("alpha,r_g,d_s,theta", HOLE_GRID)
def test_guard_hole_matches_dense_reference(alpha, r_g, d_s, theta):
    p = make_params(alpha=alpha, r_g=r_g, d_s=d_s, theta_s=theta, r_h=1.0, d_p=0.5,
                    power_p=1.0, power_s=0.1, lambda_p_total=0.01)
    s = theta * d_s ** alpha / p.power_s
    c = s * p.power_p
    h_ref = _dense_hole(d_s, r_g, alpha, c)
    assert abs(_hole_integral(d_s, r_g, alpha, c) - h_ref) <= 1e-4

    active = 0.01
    tau_ref = (p.lambda_p * (phi(alpha) * c ** (2.0 / alpha) - h_ref)
               + active * math.exp(p.lambda_p * _lens_area(d_s, r_g))
               * phi(alpha) * (s * p.power_s) ** (2.0 / alpha))
    out = outage_secondary(p, active)
    assert abs(out.tau - tau_ref) <= 1e-4
    assert abs(out.probability + math.expm1(-tau_ref)) <= 1e-4
    assert not out.clamped


@pytest.mark.parametrize("alpha", [3.0, 4.0, 5.5])
def test_guard_hole_degenerate_geometries(alpha):
    assert _hole_integral(0.5, 0.0, alpha, 2.0) == 0.0          # no guard zone
    assert _hole_integral(0.5, 3.0, alpha, 0.0) == 0.0          # zero threshold
    # transmitter at the receiver: a centered disk
    assert abs(_hole_integral(0.0, 3.0, alpha, 2.0) - _dense_hole(0.0, 3.0, alpha, 2.0)) <= 1e-4
    # receiver on the hole's edge and far outside it
    for d in (3.0, 9.0):
        h = _hole_integral(d, 3.0, alpha, 2.0)
        assert math.isfinite(h) and abs(h - _dense_hole(d, 3.0, alpha, 2.0)) <= 1e-4
    with pytest.raises(ValueError):
        _hole_integral(-0.5, 3.0, alpha, 2.0)


def test_lens_area_values():
    assert _lens_area(0.0, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert _lens_area(2.0, 2.0) == pytest.approx(4.0 * (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0),
                                                 rel=1e-13)
    assert _lens_area(4.0, 2.0) == 0.0 and _lens_area(5.0, 2.0) == 0.0
    assert _lens_area(1.0, 0.0) == 0.0


def test_secondary_without_guard_zones_is_unconditioned_form():
    p = make_params(r_g=0.0)
    for active in (0.0, 0.004, 0.02):
        assert outage_secondary(p, active).tau == pytest.approx(tau_secondary(p, active),
                                                                rel=1e-12)


def test_secondary_conditional_rises_above_paper_form():
    # The paper's form books every charger inside the guard radius as a
    # certain outage and clamps at moderate power separation; the exact form
    # only removes that interference, so it never falls below it.
    p = make_params(power_p=1.0, power_s=0.1, r_g=3.0, lambda_s=0.1)
    active = transmission_probability(p).value * p.lambda_s
    for theta in (1.0, 5.0, 20.0, 100.0, 1000.0):
        q = dataclasses.replace(p, theta_s=theta)
        exact, paper = outage_secondary(q, active), outage_secondary_paper(q, active)
        assert exact.probability >= paper.probability and 0.0 < exact.probability < 1.0


def test_dedicated_band_operating_point_hits_budget_exactly():
    # active density solving the outage budget makes the outage equal eps_s
    p = make_params(r_g=0.0)
    active = -math.log1p(-p.eps_s) / (p.theta_s ** 0.5 * p.d_s ** 2 * phi(p.alpha))
    assert wit_outage(p, active).probability == pytest.approx(p.eps_s, abs=1e-12)


def test_throughput_values():
    assert spatial_throughput(0.0, 0.2, 5.0) == 0.0
    assert spatial_throughput(0.3, 0.2, 1.0) == pytest.approx(0.06, rel=1e-14)
    assert spatial_throughput(0.203136, 1.0, 5.0) == pytest.approx(0.5250989425464928, rel=1e-13)
