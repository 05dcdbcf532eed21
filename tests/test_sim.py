import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rfharvest import (ConditioningTooRareError, SimConfig, SlotSimulator,
                       charging_geometry, estimate_outage, estimate_p_t,
                       interference_samples, outage_curve, p_guard, phi,
                       transmission_probability)
from rfharvest import sim as sim_module
from rfharvest.sim import (_CellList, _cluster_rates, _cluster_transmitters, _combine,
                           _hppp, _rep_rngs, _shot_noise, _torus_d2)

from conftest import make_params

RNG = np.random.default_rng


def small_cfg(**kw):
    base = dict(window_side=60.0, n_slots=20, n_replications=3, master_seed=9,
                warmup=20)
    base.update(kw)
    return SimConfig(**base)


# -- point sampling ---------------------------------------------------------------


def test_zero_density_gives_empty_pattern():
    assert len(_hppp(0.0, 50.0, RNG(0))) == 0


def test_counts_are_poisson():
    rng = RNG(1)
    counts = np.array([len(_hppp(0.05, 10.0, rng)) for _ in range(8000)])
    assert counts.mean() == pytest.approx(5.0, abs=0.15)
    assert counts.var() == pytest.approx(5.0, rel=0.1)
    # chi-square goodness of fit against the Poisson(5) pmf
    kmax = 14
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), 5.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * len(counts)
    chi2 = stats.chisquare(observed, expected)
    assert chi2.pvalue > 1e-4


def test_points_stay_in_window():
    assert np.all(np.abs(_hppp(0.1, 30.0, RNG(2))) <= 15.0)


def test_disk_emptiness_frequency_matches_void_probability():
    rng = RNG(3)
    r_g, lam = 3.0, 0.01
    hits = sum(
        not np.any(_torus_d2(_hppp(lam, 100.0, rng), np.zeros((1, 2)), 100.0) <= r_g ** 2)
        for _ in range(4000))
    est = hits / 4000
    sigma = math.sqrt(est * (1 - est) / 4000)
    assert abs(est - p_guard(lam, r_g)) <= 3 * sigma


def test_torus_metric_wraps():
    d2 = _torus_d2(np.array([[49.0, 0.0]]), np.array([[-49.0, 0.0]]), 100.0)
    assert d2[0, 0] == pytest.approx(4.0)


# -- nearest-charger query ---------------------------------------------------------


class DenseNearest:
    """The all-pairs nearest-point query that the cell list replaces."""

    def __init__(self, xy, window, radius):
        self.xy, self.window = xy, window

    def nearest_d2(self, query):
        if len(self.xy) == 0 or len(query) == 0:
            return np.full(len(self.xy), np.inf)
        return _torus_d2(self.xy, query, self.window).min(axis=1)


def assert_matches_dense(points, query, window, radius):
    got = _CellList(points, window, radius).nearest_d2(query)
    dense = DenseNearest(points, window, radius).nearest_d2(query)
    near = dense <= radius ** 2
    assert np.array_equal(got[near], dense[near])
    assert np.all(got[~near] > radius ** 2)
    return got


@pytest.mark.parametrize("radius", [0.7, 4.0, 20.1, 25.0, 40.0, 60.0])
def test_cell_list_matches_dense_query(radius):
    # up to 85 cells per side (at most one per point) down to 2 (radius >
    # window/3) and 1 (radius > window/2)
    rng = RNG(int(radius * 10))
    for n_pts, n_query in ((8000, 30), (50, 200), (1, 1)):
        assert_matches_dense(rng.uniform(-30, 30, (n_pts, 2)),
                             rng.uniform(-30, 30, (n_query, 2)), 60.0, radius)


@pytest.mark.parametrize("radius", [1.0, 4.0, 25.0])
def test_cell_list_window_edges(radius):
    # points on the closed and the open edge of the window, on cell
    # boundaries, and the same positions as query points
    half = 30.0
    below = np.nextafter(half, 0.0)
    edge = np.array([[-half, -half], [below, below], [-half, below], [below, 0.0],
                     [0.0, -half], [below - radius, 0.0], [-half + radius, 0.0]])
    grid = np.arange(-half, half, radius)
    lattice = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    points = np.vstack([edge, lattice])
    got = assert_matches_dense(points, edge, 60.0, radius)
    assert np.all(got[:len(edge)] == 0.0)
    assert_matches_dense(edge, points, 60.0, radius)
    # wraps across the seam: -half and just below +half are neighbours
    d2 = _CellList(edge[:1], 60.0, radius).nearest_d2(edge[1:2])
    assert d2[0] == pytest.approx(2 * (half - below) ** 2)


def test_cell_list_without_chargers_or_points():
    none = np.zeros((0, 2))
    pts = RNG(3).uniform(-30, 30, (20, 2))
    assert np.all(_CellList(pts, 60.0, 4.0).nearest_d2(none) == np.inf)
    assert _CellList(none, 60.0, 4.0).nearest_d2(pts).shape == (0,)
    assert _CellList(none, 60.0, 4.0).nearest_d2(none).shape == (0,)


@pytest.mark.parametrize("r_g, lambda_p, window, dedicated", [
    (3.0, 0.05, 30.0, None),        # 9 cells per side
    (3.0, 0.05, 30.0, (0.5, 0.0)),
    (0.0, 0.3, 2.5, (0.5, 0.0)),    # 2 cells per side
    (0.0, 0.3, 1.5, None),          # 1 cell
])
def test_step_states_match_dense_query(monkeypatch, r_g, lambda_p, window, dedicated):
    p = make_params(r_g=r_g, r_h=1.0, lambda_s=2.0, lambda_p_total=lambda_p, power_p=2.0,
                    power_s=0.15)
    cfg = small_cfg(window_side=window)
    kw = {} if dedicated is None else {"dedicated_pt": np.array(dedicated)}
    sims = [SlotSimulator(p, cfg, RNG(11), **kw)]
    monkeypatch.setattr(sim_module, "_CellList", DenseNearest)
    sims.append(SlotSimulator(p, cfg, RNG(11), **kw))
    assert sims[0].n_st > 0
    transmits = harvests = 0
    for _ in range(40):
        for sim in sims:
            sim.step()
        cell, dense = sims
        assert np.array_equal(cell.battery, dense.battery)
        assert np.array_equal(cell.st_transmit, dense.st_transmit)
        assert np.array_equal(cell.st_harvest, dense.st_harvest)
        transmits += cell.n_transmitting
        harvests += cell.n_harvesting
    assert transmits > 0 and harvests > 0


def test_cluster_guard_filter_matches_dense_query(monkeypatch):
    p = make_params(r_g=3.0, power_p=2.0, lambda_s=0.2, lambda_p_total=0.02)
    kappa, daughters = _cluster_rates(p, transmission_probability(p).upper)
    cell = [_cluster_transmitters(p, 40.0, kappa, daughters, RNG(s)) for s in range(20)]
    monkeypatch.setattr(sim_module, "_CellList", DenseNearest)
    dense = [_cluster_transmitters(p, 40.0, kappa, daughters, RNG(s)) for s in range(20)]
    for a, b in zip(cell, dense):
        assert np.array_equal(a, b)
    assert sum(map(len, cell)) > 0


def test_step_scales_to_wide_windows(fig9_params):
    # ~100k secondaries and ~10k chargers: the all-pairs query would need a
    # ~7 GB temporary
    sim = SlotSimulator(fig9_params, SimConfig(window_side=1000.0), RNG(2))
    assert sim.n_st > 90_000
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        sim.step()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sim.pt_xy) > 9_000 and sim.n_harvesting > 0
    assert peak < 64 * 2 ** 20
    assert elapsed < 5.0


# -- slot dynamics -----------------------------------------------------------------


def one_charger_sim(p, st_x, battery=None):
    """One secondary at (st_x, 0) and one always-on charger at the origin."""
    return SlotSimulator(p, small_cfg(), RNG(0), st_xy=np.array([[st_x, 0.0]]),
                         battery=battery, dedicated_pt=np.zeros(2))


def test_edge_of_zone_charges_in_one_slot():
    # single-slot regime: the minimum in-zone harvest already fills the battery
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0)
    sim = one_charger_sim(p, 1.0)
    sim.step()
    assert sim.battery[0] == pytest.approx(p.power_s)
    assert sim.st_harvest[0] and not sim.st_transmit[0]


def test_full_battery_inside_guard_zone_idles():
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0, r_g=3.0)
    sim = one_charger_sim(p, 2.0, battery=np.array([0.1]))
    sim.step()
    assert sim.battery[0] == pytest.approx(0.1)
    assert sim.n_idle == 1 and sim.n_transmitting == 0 and sim.n_harvesting == 0


def test_full_battery_outside_guard_zones_transmits():
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0, r_g=3.0)
    sim = one_charger_sim(p, 10.0, battery=np.array([0.1]))
    sim.step()
    assert sim.st_transmit[0]
    assert sim.battery[0] == 0.0


def test_modes_partition_and_battery_capped():
    p = make_params(lambda_s=0.3, power_s=0.15, power_p=2.0, r_h=1.5, r_g=4.0)
    cfg = small_cfg(window_side=80.0)
    sim = SlotSimulator(p, cfg, RNG(5))
    for _ in range(60):
        sim.step()
        assert sim.n_transmitting + sim.n_harvesting + sim.n_idle == sim.n_st
        assert sim.battery.max() <= p.power_s + 1e-12
        if sim.n_transmitting:
            # no transmitter may sit inside any guard zone
            act = sim.active_pt_xy()
            if len(act):
                d2 = _torus_d2(sim.transmitting_st_xy(), act, sim.window)
                assert d2.min() > p.r_g ** 2


# -- estimators --------------------------------------------------------------------


def test_p_t_zero_without_chargers():
    p = make_params(lambda_p_total=0.0, lambda_s=0.2)
    est = estimate_p_t(p, small_cfg())
    assert est.mean == 0.0


@pytest.mark.slow
def test_p_t_matches_chain_value_in_single_slot_regime():
    # >= 1e6 transmitter-slot samples against the stationary closed form
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=0.03, lambda_s=0.2)
    cfg = SimConfig(n_slots=90, n_replications=6, master_seed=101)
    est = estimate_p_t(p, cfg)
    assert est.n_samples >= 1_000_000
    assert abs(est.mean - transmission_probability(p).value) <= est.half_width


def test_estimates_are_deterministic():
    p = make_params(lambda_s=0.1)
    cfg = small_cfg()
    assert estimate_p_t(p, cfg) == estimate_p_t(p, cfg)


def test_combine_is_order_invariant():
    means, counts = [0.1, 0.3, 0.2], [100, 100, 100]
    a = _combine(means, counts)
    b = _combine(means[::-1], counts[::-1])
    assert a == b


def test_empty_window_rejected():
    p = make_params(lambda_s=1e-6)
    with pytest.raises(ValueError, match="no secondary transmitters"):
        estimate_p_t(p, small_cfg(window_side=40.0))


@pytest.mark.slow
def test_void_probability_estimate_is_window_stable():
    # doubling the window moves the estimate by less than its half-width
    lam, r_g = 0.01, 3.0
    out = {}
    for side in (100.0, 200.0):
        rng = RNG(21)
        reps = []
        for _ in range(8):
            hits = sum(
                not np.any(_torus_d2(_hppp(lam, side, rng), np.zeros((1, 2)), side)
                           <= r_g ** 2)
                for _ in range(250))
            reps.append(hits / 250)
        out[side] = _combine(reps, [250] * 8)
    assert abs(out[100.0].mean - out[200.0].mean) <= max(out[100.0].half_width,
                                                         out[200.0].half_width)


def test_interference_zero_without_chargers():
    p = make_params(lambda_p_total=0.0, lambda_s=0.2)
    samples = interference_samples(p, small_cfg(), "exact")
    assert np.all(samples == 0.0)


def test_interference_mode_names():
    p = make_params(lambda_s=0.05)
    cfg = small_cfg(n_slots=5, n_replications=2)
    # the former aliases of approx and exact are gone
    for name in ("hppp-approx", "exact-dynamics", "both"):
        with pytest.raises(ValueError, match="unknown interference mode"):
            interference_samples(p, cfg, name)


def uniform_field_samples(p, cfg, density):
    """The approx mode's draws at a given transmitter density."""
    window = cfg.resolved_window(p)
    return np.asarray([_shot_noise(_hppp(density, window, rng), p.power_s, p.alpha, rng)
                       for rng in _rep_rngs(cfg) for _ in range(cfg.n_slots)])


def test_approx_mode_takes_the_conservative_pt_endpoint():
    # In the interval regime (m >= 3) the uniform field's density is the
    # upper endpoint of p_t times lambda_s, as in analyze and the cluster mode
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, power_s=0.16, lambda_s=0.2)
    tp = transmission_probability(p)
    assert charging_geometry(p).m_slots >= 3 and tp.lower < tp.upper
    cfg = small_cfg(n_slots=10, n_replications=2)
    assert np.array_equal(interference_samples(p, cfg, "approx"),
                          uniform_field_samples(p, cfg, tp.upper * p.lambda_s))


def test_cluster_field_mean_count_matches_transmitting_density():
    # Parents x Poisson daughters x guard-zone survival has mean p_t lambda_s
    p = make_params(r_g=3.0, power_p=2.0, lambda_s=0.2)
    cfg = SimConfig(window_side=60.0, n_slots=200, n_replications=8, master_seed=5)
    window = cfg.resolved_window(p)
    pt = transmission_probability(p).upper
    kappa, daughters = _cluster_rates(p, pt)
    means = [np.mean([len(_cluster_transmitters(p, window, kappa, daughters, rng))
                      for _ in range(cfg.n_slots)])
             for rng in _rep_rngs(cfg)]
    est = _combine(means, [cfg.n_slots] * len(means))
    assert abs(est.mean - pt * p.lambda_s * window ** 2) <= est.half_width


def test_cluster_field_respects_guard_zones_and_window():
    p = make_params(r_g=3.0, power_p=2.0, lambda_s=0.2)
    rng = RNG(8)
    kappa, daughters = _cluster_rates(p, transmission_probability(p).upper)
    for _ in range(20):
        xy = _cluster_transmitters(p, 60.0, kappa, daughters, rng)
        assert np.all(np.abs(xy) <= 30.0)
    assert _cluster_rates(make_params(lambda_p_total=0.0), 0.0) == (0.0, 0.0)
    samples = interference_samples(make_params(lambda_p_total=0.0, lambda_s=0.2),
                                   small_cfg(), "cluster")
    assert np.all(samples == 0.0)


def test_poisson_field_matches_shot_noise_transform():
    # empirical E[exp(-s I)] against exp(-(P s)^(2/alpha) * lambda * phi)
    p = make_params(lambda_s=0.2, power_s=0.1)
    cfg = SimConfig(window_side=100.0, n_slots=500, n_replications=4, master_seed=33)
    samples = uniform_field_samples(p, cfg, 0.01)
    for s in (1.0, 10.0, 100.0):
        emp = np.exp(-s * samples)
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        expected = math.exp(-(p.power_s * s) ** 0.5 * 0.01 * phi(4.0))
        assert abs(emp.mean() - expected) <= 3 * se


def test_outage_zero_without_interference_or_noise():
    p = make_params(lambda_p_total=0.0, r_g=0.0, lambda_s=0.05)
    est = estimate_outage(p, small_cfg(), "wit")
    assert est.mean == 0.0


def test_outage_sides_and_conditioning_validation():
    p = make_params(lambda_s=0.05)
    with pytest.raises(ValueError, match="unknown side"):
        outage_curve(p, small_cfg(), "tertiary", [1.0])
    with pytest.raises(ValueError, match="rejection conditioning"):
        outage_curve(p, small_cfg(), "primary", [1.0], conditioning="rejection")


def test_conditioning_too_rare_raises():
    p = make_params(lambda_p_total=1.0, r_g=4.0, r_h=0.5, lambda_s=0.05)
    with pytest.raises(ConditioningTooRareError):
        estimate_outage(p, small_cfg(window_side=40.0), "secondary")


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(n_slots=0)
    with pytest.raises(ValueError):
        SimConfig(n_replications=0)
    with pytest.raises(ValueError, match="below 4"):
        SimConfig(window_side=10.0).resolved_window(make_params(r_g=4.0))
    assert SimConfig(warmup=0).resolved_warmup(5) == 0


@pytest.mark.parametrize("side", [math.nan, math.inf, 0.0, -60.0])
def test_simconfig_rejects_bad_window(side):
    with pytest.raises(ValueError, match="window side must be finite and positive"):
        SimConfig(window_side=side)


def test_simconfig_rejects_negative_warmup():
    with pytest.raises(ValueError, match="warmup must be non-negative, got -1"):
        SimConfig(warmup=-1)


def test_default_window_and_warmup():
    cfg = SimConfig()
    assert cfg.resolved_window(make_params(r_g=4.0)) == 100.0
    assert cfg.resolved_window(make_params(r_g=8.0)) == 160.0
    assert cfg.resolved_warmup(1) == 100
    assert cfg.resolved_warmup(12) == 120


@pytest.mark.slow
def test_transmit_probability_trends_down_with_slow_charging():
    # no exact chain exists beyond two-slot charging; check the simulated
    # trend across the interval regime
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, lambda_s=0.2)
    cfg = SimConfig(n_slots=50, n_replications=4, master_seed=55)
    est = [estimate_p_t(dataclasses.replace(p, power_s=ps), cfg)
           for ps in (0.10, 0.13, 0.16)]
    assert est[0].mean > est[-1].mean + est[0].half_width
