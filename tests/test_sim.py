import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rfharvest import (ConditioningTooRareError, SimConfig, SlotSimulator,
                       charging_geometry, estimate_outage, estimate_p_t,
                       interference_samples, outage_curve, outage_primary,
                       outage_secondary, p_guard, p_harvest, phi, transmission_probability)
from rfharvest import sim as sim_module
from rfharvest.params import _table
from rfharvest.sim import (_CellList, _cluster_rates, _cluster_transmitters, _combine,
                           _hppp, _min_image_d2, _rep_rngs, _shot_noise)

from conftest import make_params, replace_params

RNG = np.random.default_rng


def _torus_d2(a, b, side):
    """Pairwise squared min-image distances, shape (len(a), len(b))."""
    return _min_image_d2(a[:, None] - b[None], side)


def active_pt_xy(sim, r):
    """Replication r's active network chargers this slot (dedicated point excluded)."""
    return sim.pt_xy[sim.pt_off[r]:sim.pt_off[r + 1]]


def transmitting_st_xy(sim, r):
    """Replication r's transmitting secondaries this slot."""
    a, b = sim.st_off[r], sim.st_off[r + 1]
    return sim.st_xy[a:b][sim.st_transmit[0, a:b]]


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

    def __init__(self, xy, window, radius, rep=None, n_reps=1):
        self.xy, self.window = xy, window
        self.rep = np.zeros(len(xy), dtype=int) if rep is None else rep

    def nearest_d2(self, query, rep=None):
        rep = np.zeros(len(query), dtype=int) if rep is None else rep
        if len(self.xy) == 0 or len(query) == 0:
            return np.full(len(self.xy), np.inf)
        d2 = _torus_d2(self.xy, query, self.window)
        d2[self.rep[:, None] != rep[None, :]] = np.inf
        return d2.min(axis=1)


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


def test_cell_list_keeps_replications_apart():
    # Three replications on one window: each point sees only the query
    # points of its own replication, also where another's lie closer
    rng = RNG(4)
    pts = rng.uniform(-30, 30, (600, 2))
    rep = np.repeat(np.arange(3), [250, 0, 350])
    query = rng.uniform(-30, 30, (90, 2))
    query_rep = rng.integers(0, 3, 90)
    for radius in (2.0, 7.0, 25.0, 40.0):  # 14, 8, 2 and 1 cells per side
        got = _CellList(pts, 60.0, radius, rep, 3).nearest_d2(query, query_rep)
        dense = DenseNearest(pts, 60.0, radius, rep, 3).nearest_d2(query, query_rep)
        near = dense <= radius ** 2
        assert np.array_equal(got[near], dense[near])
        assert np.all(got[~near] > radius ** 2)
        alone = _CellList(pts[250:], 60.0, radius).nearest_d2(query[query_rep == 2])
        assert np.array_equal(got[250:][near[250:]], alone[near[250:]])
        assert near.any()


def test_cell_list_without_chargers_or_points():
    none = np.zeros((0, 2))
    pts = RNG(3).uniform(-30, 30, (20, 2))
    assert np.all(_CellList(pts, 60.0, 4.0).nearest_d2(none) == np.inf)
    assert _CellList(none, 60.0, 4.0).nearest_d2(pts).shape == (0,)
    assert _CellList(none, 60.0, 4.0).nearest_d2(none).shape == (0,)


@pytest.mark.parametrize("radius, n_cells", [(40.0, 1), (25.0, 2), (19.0, 3), (5.0, 11)])
@pytest.mark.parametrize("n_reps", [1, 3])
def test_cell_list_commutes_with_shuffling_the_points(radius, n_cells, n_reps):
    # The order of the indexed points is the only order the answer may
    # follow: shuffling them shuffles the distances alike, bit for bit,
    # whatever order the sort leaves within a cell
    rng = RNG(5)
    pts = rng.uniform(-30, 30, (600, 2))
    query = rng.uniform(-30, 30, (90, 2))
    rep, query_rep = None, None
    if n_reps > 1:
        rep, query_rep = rng.integers(0, n_reps, len(pts)), rng.integers(0, n_reps, len(query))
    perm = rng.permutation(len(pts))
    cells = _CellList(pts, 60.0, radius, rep, n_reps)
    shuffled = _CellList(pts[perm], 60.0, radius, None if rep is None else rep[perm], n_reps)
    assert cells.n == shuffled.n == n_cells
    got = cells.nearest_d2(query, query_rep)
    assert np.array_equal(shuffled.nearest_d2(query, query_rep), got[perm])
    assert np.isfinite(got).any()


@pytest.mark.parametrize("radius", [40.0, 25.0, 19.0, 5.0, 0.5])
@pytest.mark.parametrize("n_reps", [1, 3])
def test_cell_list_holds_each_point_at_most_three_times(radius, n_reps):
    # One copy per column block it belongs to, at most three, each with a
    # copy more for an end row: the index stays O(len(xy))
    rng = RNG(6)
    pts = rng.uniform(-30, 30, (900, 2))
    rep = None if n_reps == 1 else np.sort(rng.integers(0, n_reps, len(pts)))
    cells = _CellList(pts, 60.0, radius, rep, n_reps)
    n = cells.n
    row = cells._grid(pts)[:, 1]
    end_rows = 1 + (row == 0) + (row == n - 1)
    held = np.bincount(cells._order, minlength=len(pts))
    assert np.array_equal(held, min(n, 3) * end_rows)
    assert len(cells._xy) == len(cells._order) == cells._start[-1]
    assert len(cells._start) == n_reps * n * (n + 2) + 1 and n * n <= len(pts) // n_reps


@pytest.mark.parametrize("n_reps", [1, 3])
def test_cell_list_falls_back_to_intp_keys(monkeypatch, n_reps):
    # Keys and point numbers are int32 below 2**31 of each; at the limit
    # they are intp, and every distance stays the same
    rng = RNG(7)
    pts = rng.uniform(-30, 30, (900, 2))
    query = rng.uniform(-30, 30, (90, 2))
    rep = None if n_reps == 1 else np.sort(rng.integers(0, n_reps, len(pts)))
    query_rep = None if n_reps == 1 else rng.integers(0, n_reps, len(query))
    narrow = _CellList(pts, 60.0, 4.0, rep, n_reps)
    monkeypatch.setattr(sim_module, "_INT32_INDEX_LIMIT", 1)
    wide = _CellList(pts, 60.0, 4.0, rep, n_reps)
    assert narrow._order.dtype == np.int32 and wide._order.dtype == np.intp
    assert np.array_equal(narrow._start, wide._start)
    got = narrow.nearest_d2(query, query_rep)
    assert np.array_equal(wide.nearest_d2(query, query_rep), got)
    assert np.isfinite(got).any()


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
    sims = [SlotSimulator(p, cfg, [RNG(11), RNG(12)], **kw)]
    monkeypatch.setattr(sim_module, "_CellList", DenseNearest)
    sims.append(SlotSimulator(p, cfg, [RNG(11), RNG(12)], **kw))
    assert sims[0].n_st > 0
    transmits = harvests = 0
    for _ in range(40):
        for sim in sims:
            sim.step()
        cell, dense = sims
        assert np.array_equal(cell.battery, dense.battery)
        assert np.array_equal(cell.st_transmit, dense.st_transmit)
        assert np.array_equal(cell.st_harvest, dense.st_harvest)
        transmits += cell.st_transmit.sum()
        harvests += cell.st_harvest.sum()
    assert transmits > 0 and harvests > 0


@pytest.mark.parametrize("n_reps", [1, 3, 8])
@pytest.mark.parametrize("r_g, lambda_p, window, dedicated", [
    (3.0, 0.05, 30.0, None),
    (3.0, 0.05, 30.0, (0.5, 0.0)),
    (0.0, 0.3, 2.5, (0.5, 0.0)),    # about 1 in 7 slots draws no charger
    (0.0, 0.3, 1.5, None),          # about 1 in 2
])
def test_lockstep_matches_replications_stepped_alone(n_reps, r_g, lambda_p, window,
                                                     dedicated):
    p = make_params(r_g=r_g, r_h=1.0, lambda_s=2.0, lambda_p_total=lambda_p, power_p=2.0,
                    power_s=0.15)
    cfg = small_cfg(window_side=window)
    kw = {} if dedicated is None else {"dedicated_pt": np.array(dedicated)}
    seeds = range(20, 20 + n_reps)
    batch = SlotSimulator(p, cfg, [RNG(s) for s in seeds], **kw)
    alone = [SlotSimulator(p, cfg, [RNG(s)], **kw) for s in seeds]
    assert batch.st_off == list(np.cumsum([0] + [a.n_st for a in alone]))
    transmits = harvests = chargerless = 0
    for _ in range(40):
        batch.step()
        for r, sim in enumerate(alone):
            sim.step()
            st = slice(batch.st_off[r], batch.st_off[r + 1])
            assert np.array_equal(batch.pt_xy[batch.pt_off[r]:batch.pt_off[r + 1]], sim.pt_xy)
            assert np.array_equal(batch.battery[:, st], sim.battery)
            assert np.array_equal(batch.st_transmit[:, st], sim.st_transmit)
            assert np.array_equal(batch.st_harvest[:, st], sim.st_harvest)
            assert np.array_equal(transmitting_st_xy(batch, r), transmitting_st_xy(sim, 0))
            chargerless += len(sim.pt_xy) == 0
        transmits += batch.st_transmit.sum()
        harvests += batch.st_harvest.sum()
    assert transmits > 0 and harvests > 0
    assert chargerless > 0 or window > 10


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
    sim = SlotSimulator(fig9_params, SimConfig(window_side=1000.0), [RNG(2)])
    assert sim.n_st > 90_000
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        sim.step()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sim.pt_xy) > 9_000 and sim.st_harvest.any()
    assert peak < 64 * 2 ** 20
    assert elapsed < 5.0


def test_batch_size_changes_no_estimate(monkeypatch):
    # One replication per batch returns exactly what one batch of all of
    # them returns
    p = make_params(lambda_s=0.1, power_p=2.0)
    cfg = small_cfg(n_replications=4)
    thetas = [0.5, 5.0, 50.0]
    batch_sizes = []

    class Recorded(SlotSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            batch_sizes.append(self.n_reps)

    def run():
        batch_sizes.clear()
        return (estimate_p_t(p, cfg),
                [outage_curve(p, cfg, side, thetas) for side in ("primary", "secondary", "wit")],
                interference_samples(p, cfg, "exact"))

    monkeypatch.setattr(sim_module, "SlotSimulator", Recorded)
    pt, outage, interference = run()
    assert batch_sizes == [4] * 5
    monkeypatch.setattr(sim_module, "_BATCH_SECONDARIES", 1)
    pt_alone, outage_alone, interference_alone = run()
    assert batch_sizes == [1] * 20
    assert pt_alone == pt and outage_alone == outage
    assert np.array_equal(interference_alone, interference)
    assert 0 < pt.mean < 1 and len(interference) == 4 * cfg.n_slots


def test_batches_stay_within_one_wide_replication(fig9_params):
    # At window 1000 one replication fills a batch, so three replications
    # need no more memory than one
    def peak(n_reps):
        cfg = SimConfig(window_side=1000.0, n_slots=1, n_replications=n_reps, warmup=0)
        tracemalloc.start()
        try:
            estimate_p_t(fig9_params, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.5 * peak(1)


def reference_shot_noise(xy, power, alpha, rng):
    """Shot noise at the origin, drawn and summed set by set as a lone
    replication would."""
    if len(xy) == 0:
        return 0.0
    r = np.hypot(xy[:, 0], xy[:, 1])
    g = rng.exponential(size=len(xy))
    return float(np.sum(g * power * r ** -alpha))


def reference_slots(p, cfg, measure, **kw):
    """Each replication stepped alone, ``measure(sim, rng)`` appending one
    sample (or none) after each measured slot; one array per replication."""
    warmup = cfg.resolved_warmup(p)
    samples = []
    for rng in _rep_rngs(cfg):
        sim = SlotSimulator(p, cfg, [rng], **kw)
        out = []
        for i in range(warmup + cfg.n_slots):
            sim.step()
            if i >= warmup:
                measure(sim, rng, out)
        samples.append(np.asarray(out, dtype=float))
    return samples


def reference_sinr_samples(p, cfg, side, seen):
    """SINR samples of each replication stepped alone, its fading drawn set by
    set; counts in ``seen`` the slots without chargers, without
    transmitters, and rejected."""
    signal_power, link_dist = (p.power_p, p.d_p) if side == "primary" else (p.power_s, p.d_s)
    path_gain = link_dist ** -p.alpha if link_dist > 0 else math.inf
    reject = side == "secondary" and p.r_g > 0

    def measure(sim, rng, out):
        act = active_pt_xy(sim, 0)
        tx = transmitting_st_xy(sim, 0)
        seen["chargerless"] += len(act) == 0
        seen["silent"] += len(tx) == 0
        if reject and len(act) and _min_image_d2(act - (link_dist, 0.0),
                                                 sim.window).min() <= p.r_g ** 2:
            seen["rejected"] += 1
            return
        i_p = 0.0 if side == "wit" else reference_shot_noise(act, p.power_p, p.alpha, rng)
        i_s = reference_shot_noise(tx, p.power_s, p.alpha, rng)
        g = rng.exponential()
        denom = i_p + i_s + p.noise
        signal = g * signal_power * path_gain
        out.append(signal / denom if denom > 0 else np.inf)

    kw = {"dedicated_pt": np.array([p.d_p, 0.0])} if side == "primary" else {}
    return reference_slots(p, cfg, measure, **kw)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


PROBE_RUNS = ["primary", "secondary", "secondary-unconditioned", "wit"]


@pytest.mark.parametrize("batch_secondaries", [2 ** 17, 40])
@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_batched_probe_matches_per_replication_loop(monkeypatch, batch_secondaries, noise):
    # About 20 secondaries and 1.6 chargers per replication-slot: some
    # slots draw no charger, some have no transmitter.  At 40 secondaries
    # a batch holds two replications, so each run of five splits across
    # three batches.
    p = make_params(lambda_s=0.05, lambda_p_total=0.004, power_p=2.0, noise=noise)
    monkeypatch.setattr(sim_module, "_BATCH_SECONDARIES", batch_secondaries)
    seen = dict.fromkeys(("chargerless", "silent", "rejected"), 0)
    for k, side in enumerate(PROBE_RUNS):
        cfg = small_cfg(window_side=20.0, n_slots=30, n_replications=5, warmup=10,
                        master_seed=40 + k)
        assert_bit_identical(sim_module._sinr_samples(p, cfg, side),
                             reference_sinr_samples(p, cfg, side, seen))
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("batch_secondaries", [2 ** 17, 40])
@pytest.mark.parametrize("lambda_s", [0.05, 1.0])
def test_batched_interference_matches_per_replication_loop(monkeypatch, batch_secondaries,
                                                          lambda_s):
    # At lambda_s 0.05 some slots have no transmitter; at 1.0 the sums run
    # long enough that a sum in another order would differ in its last bits
    p = make_params(lambda_s=lambda_s, lambda_p_total=0.004, power_p=2.0)
    monkeypatch.setattr(sim_module, "_BATCH_SECONDARIES", batch_secondaries)
    cfg = small_cfg(window_side=20.0, n_slots=30, n_replications=5, warmup=10)
    transmitters = []

    def measure(sim, rng, out):
        xy = transmitting_st_xy(sim, 0)
        transmitters.append(len(xy))
        out.append(reference_shot_noise(xy, p.power_s, p.alpha, rng))

    want = np.concatenate(reference_slots(p, cfg, measure))
    got = interference_samples(p, cfg, "exact")
    assert got.tobytes() == want.tobytes()
    assert min(transmitters) == 0 if lambda_s < 0.1 else max(transmitters) >= 10


@pytest.mark.parametrize("thetas", [[math.nan, -1.0, 0.0], [1.0, 0.0], [-2.0], [math.inf]])
def test_outage_curve_refuses_bad_thresholds(monkeypatch, thetas):
    # before: [nan, -1, 0] gave the outages [0.0, 0.0, 0.0]
    monkeypatch.setattr(sim_module, "_sinr_samples", lambda *a: pytest.fail("a slot ran"))
    with pytest.raises(ValueError, match="SINR thresholds must be finite and positive"):
        outage_curve(make_params(), small_cfg(), "primary", thetas)


def test_outage_curve_refuses_empty_thresholds(monkeypatch):
    # before: every warm-up and measured slot ran, and then [] came back
    monkeypatch.setattr(SlotSimulator, "step", lambda sim: pytest.fail("a slot ran"))
    with pytest.raises(ValueError, match="at least one SINR threshold"):
        outage_curve(make_params(), small_cfg(), "primary", [])


def test_threshold_counts_match_per_threshold_means(monkeypatch):
    # A sample equal to a threshold is not below it, inf is above every
    # threshold, and a replication without kept slots is left out
    samples = [np.array([2.0, 0.5, np.inf, 2.0, 1e-3]), np.array([]),
               RNG(3).lognormal(size=997), np.array([np.inf])]
    thetas = [2.0, 0.1, 1.0, 5.0, 1e300]
    monkeypatch.setattr(sim_module, "_sinr_samples", lambda *a: samples)
    cfg = small_cfg(n_replications=len(samples), n_slots=5)
    got = outage_curve(make_params(), cfg, "primary", thetas)
    kept = [sinr for sinr in samples if len(sinr)]
    for est, th in zip(got, thetas):
        want = _combine([float(np.mean(sinr < th)) for sinr in kept], [len(s) for s in kept])
        assert (np.array(dataclasses.astuple(est)).tobytes()
                == np.array(dataclasses.astuple(want)).tobytes())


@pytest.mark.parametrize("side, field", [("primary", "d_p"), ("secondary", "d_s"),
                                         ("wit", "d_s")])
def test_link_beyond_half_the_window_is_refused(side, field):
    # r_g = 0 puts no bound on d_p below the window's
    p = make_params(r_g=0.0, lambda_p_total=0.001, **{field: 10.0})
    with pytest.raises(ValueError, match=f"link distance {field}=10.0 must be smaller than "
                                         "half the window side 20.0"):
        outage_curve(p, small_cfg(window_side=20.0), side, [1.0])
    outage_curve(replace_params(p, **{field: 9.99}), small_cfg(window_side=20.0, n_slots=2,
                                                               warmup=0), side, [1.0])


# -- slot dynamics -----------------------------------------------------------------


def one_charger_sim(p, st_x, battery=0.0):
    """One secondary at (st_x, 0) holding ``battery`` and one always-on
    charger at the origin: a simulator built without secondaries, then given
    that one."""
    sim = SlotSimulator(replace_params(p, lambda_s=0.0), small_cfg(), [RNG(0)],
                        dedicated_pt=np.zeros(2))
    sim._place(np.array([[st_x, 0.0]]), [0, 1])
    sim.battery[0, 0] = battery
    return sim


def test_edge_of_zone_charges_in_one_slot():
    # single-slot regime: the minimum in-zone harvest already fills the battery
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0)
    sim = one_charger_sim(p, 1.0)
    sim.step()
    assert sim.battery[0, 0] == pytest.approx(p.power_s)
    assert sim.st_harvest[0, 0] and not sim.st_transmit[0, 0]


def test_full_battery_inside_guard_zone_idles():
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0, r_g=3.0)
    sim = one_charger_sim(p, 2.0, battery=0.1)
    sim.step()
    assert sim.battery[0, 0] == pytest.approx(0.1)
    assert not sim.st_transmit[0, 0] and not sim.st_harvest[0, 0]


def test_full_battery_outside_guard_zones_transmits():
    p = make_params(lambda_p_total=0.0, power_s=0.1, power_p=1.0, r_h=1.0, r_g=3.0)
    sim = one_charger_sim(p, 10.0, battery=0.1)
    sim.step()
    assert sim.st_transmit[0, 0]
    assert sim.battery[0, 0] == 0.0


def test_modes_partition_and_battery_capped():
    p = make_params(lambda_s=0.3, power_s=0.15, power_p=2.0, r_h=1.5, r_g=4.0)
    cfg = small_cfg(window_side=80.0)
    sim = SlotSimulator(p, cfg, [RNG(5)])
    for _ in range(60):
        sim.step()
        assert not np.any(sim.st_transmit & sim.st_harvest)
        assert sim.battery.max() <= p.power_s + 1e-12
        if sim.st_transmit.any():
            # no transmitter may sit inside any guard zone
            act = active_pt_xy(sim, 0)
            if len(act):
                d2 = _torus_d2(transmitting_st_xy(sim, 0), act, sim.window)
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


def test_table_rows_equal_their_own_runs_bit_for_bit():
    # One dynamics run serves rows that differ in power, efficiency and path
    # loss, each measuring after its own warm-up: the coupling bound at
    # m_slots = 1, max(10 m, 100) slots at m_slots >= 2 (100 at m = 2, 110 at 11)
    base = make_params(r_g=4.0, r_h=1.5, power_p=2.0, lambda_s=0.2)
    rows = [replace_params(base, **kw) for kw in (
        {"power_s": 0.01}, {"power_s": 0.03}, {"power_s": 0.06}, {"power_s": 0.42},
        {"power_s": 0.1, "eta": 0.15}, {"power_s": 0.04, "alpha": 3.5, "power_p": 1.0})]
    cfg = small_cfg(window_side=40.0, n_slots=10, warmup=None)
    warmups = [cfg.resolved_warmup(p) for p in rows]
    assert min(warmups) < 100 <= max(warmups) and len(set(warmups)) >= 3
    fields = ("power_s", "eta", "alpha", "power_p")
    got = estimate_p_t(_table(base, {f: [getattr(p, f) for p in rows] for f in fields}), cfg)
    assert got.n_samples.dtype == np.int64
    for k, p in enumerate(rows):
        alone = estimate_p_t(p, cfg)
        assert (np.array([got.mean[k], got.half_width[k]]).tobytes()
                == np.array([alone.mean, alone.half_width]).tobytes())
        assert got.n_samples[k] == alone.n_samples
    assert len(set(got.mean.tolist())) >= 4


def test_table_rows_run_in_chunks_within_the_batch_budget(monkeypatch):
    # When one replication of all rows exceeds the budget, the rows run in
    # chunks that fit it, each chunk at the same seed, so no row's bits move
    base = make_params(r_g=4.0, r_h=1.5, power_p=2.0, lambda_s=0.2)
    table = _table(base, {"power_s": [0.01, 0.03, 0.06, 0.1, 0.42]})
    cfg = small_cfg(window_side=40.0, n_slots=10, warmup=None)
    held = []

    class Recorded(SlotSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            held.append(len(self.battery))

    monkeypatch.setattr(sim_module, "SlotSimulator", Recorded)
    whole = estimate_p_t(table, cfg)
    assert held == [5]
    held.clear()
    # 0.2 * 40**2 = 320 expected secondaries a replication: chunks of 2 rows
    monkeypatch.setattr(sim_module, "_BATCH_SECONDARIES", 2 * 320)
    chunked = estimate_p_t(table, cfg)
    assert max(held) == 2 and sorted(set(held)) == [1, 2]
    for field in ("mean", "half_width", "n_samples"):
        assert getattr(chunked, field).tobytes() == getattr(whole, field).tobytes()


def test_simulator_refuses_an_oversized_window_before_any_draw(monkeypatch):
    # The default window, 20 r_g = 2e301, is refused before r_g is squared
    # and before the first charger draw
    def no_draw(self, density):
        raise AssertionError("drew points")

    monkeypatch.setattr(SlotSimulator, "_draw", no_draw)
    cfg = SimConfig(n_replications=1)
    with pytest.raises(ValueError, match="window side 2e\\+301 has an area too large"):
        SlotSimulator(make_params(r_g=1e300), cfg, _rep_rngs(cfg))


def test_table_rows_must_share_the_geometry():
    table = _table(make_params(), {"lambda_s": [0.1, 0.2]})
    with pytest.raises(ValueError, match="must agree in lambda_s, lambda_p, r_g and r_h"):
        estimate_p_t(table, small_cfg())


def test_outage_rows_group_on_all_but_thresholds_and_budgets():
    # Rows that differ only in SINR targets, budgets or how lambda_p is
    # factored share one outage run; each other field splits a group.
    base = make_params()
    shared = [{}, {"theta_p": 20.0}, {"theta_s": 0.5}, {"eps_p": 0.05}, {"eps_s": 0.45},
              {"lambda_p_total": 0.02, "access_prob": 0.5}]
    split = [{"lambda_s": 0.2}, {"power_p": 2.0}, {"power_s": 0.2}, {"alpha": 3.0},
             {"eta": 0.2}, {"r_g": 4.0}, {"r_h": 1.5}, {"d_p": 0.4}, {"d_s": 0.4},
             {"noise": 0.01}]
    rows = [replace_params(base, **kw) for kw in shared + split]
    keys = sim_module._outage_run(
        _table(base, {f.name: [getattr(r, f.name) for r in rows]
                      for f in dataclasses.fields(base)}))
    assert len(set(keys[:len(shared)])) == 1
    assert len(set(keys)) == 1 + len(split)
    cfg = small_cfg(window_side=40.0)
    assert (outage_curve(rows[0], cfg, "primary", [1.0, 5.0])
            == outage_curve(rows[len(shared) - 1], cfg, "primary", [1.0, 5.0]))


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
    # the side names the conditioning: there is no second selector
    with pytest.raises(TypeError, match="conditioning"):
        outage_curve(p, small_cfg(), "secondary", [1.0], conditioning="none")


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
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        SimConfig(master_seed=-1)
    assert SimConfig(warmup=0).resolved_warmup(make_params(power_s=0.5)) == 0


@pytest.mark.parametrize("side", [math.nan, math.inf, 0.0, -60.0])
def test_simconfig_rejects_bad_window(side):
    with pytest.raises(ValueError, match="window side must be finite and positive"):
        SimConfig(window_side=side)


@pytest.mark.parametrize("field, value", [
    ("n_slots", 10.0), ("n_slots", True), ("n_replications", 2.0), ("master_seed", 1.5),
    ("master_seed", "7"), ("warmup", 5.0), ("warmup", False)])
def test_simconfig_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        SimConfig(**{field: value})


def test_simconfig_accepts_numpy_integers():
    cfg = small_cfg(n_slots=np.int64(4), n_replications=np.int32(2), master_seed=np.uint64(9),
                    warmup=np.int16(3))
    assert estimate_p_t(make_params(), cfg) == estimate_p_t(make_params(), small_cfg(
        n_slots=4, n_replications=2, master_seed=9, warmup=3))


@pytest.mark.parametrize("side, field, closed_form", [
    ("primary", "d_p", outage_primary), ("secondary", "d_s", outage_secondary),
    ("wit", "d_s", outage_secondary)])
def test_zero_link_distance_never_fails(side, field, closed_form):
    # a receiver at its transmitter sees infinite SINR, as the closed forms say
    p = make_params(**{field: 0.0})
    est = estimate_outage(p, small_cfg(), side)
    assert (est.mean, est.half_width) == (0.0, 0.0) and est.n_samples > 0
    assert closed_form(p, 0.01).probability == 0.0


def test_simconfig_rejects_negative_warmup():
    with pytest.raises(ValueError, match="warmup must be non-negative, got -1"):
        SimConfig(warmup=-1)


def test_default_window_and_warmup():
    cfg = SimConfig()
    assert cfg.resolved_window(make_params(r_g=4.0)) == 100.0
    assert cfg.resolved_window(make_params(r_g=8.0)) == 160.0
    # m_slots = 1 at figure 9's point: rho = 0.2154 and n = 1000 secondaries
    assert cfg.resolved_warmup(make_params()) == 14
    assert charging_geometry(make_params(power_s=1.2)).m_slots == 12
    assert cfg.resolved_warmup(make_params(power_s=1.2)) == 120


def warmup_by_search(p, cfg):
    """The smallest t >= 1 with n rho^t <= 1e-6, counted up slot by slot."""
    rho = abs(1.0 - p_harvest(p.lambda_p, p.r_h) - p_guard(p.lambda_p, p.r_g))
    n = p.lambda_s * cfg.resolved_window(p) ** 2
    t = 1
    while n * rho ** t > 1e-6:
        t += 1
    return t


@pytest.mark.parametrize("kw", [{}, {"r_g": 0.0}, {"lambda_s": 2.0}, {"lambda_p_total": 0.05},
                                {"lambda_p_total": 0.1, "r_h": 0.3, "power_s": 5e-4}])
@pytest.mark.parametrize("window", [None, 40.0])
def test_single_slot_warmup_is_the_coupling_bound(kw, window):
    p = make_params(**kw)
    cfg = SimConfig(window_side=window)
    assert charging_geometry(p).m_slots == 1
    assert cfg.resolved_warmup(p) == warmup_by_search(p, cfg)


def test_single_slot_warmup_edges():
    cfg = SimConfig()
    # rho = 0 (no chargers: p_g = 1 and p_h = 0), and no secondaries
    assert cfg.resolved_warmup(make_params(lambda_p_total=0.0)) == 1
    assert cfg.resolved_warmup(make_params(lambda_s=0.0)) == 1
    # rho near 1, where 100 slots bound the start's effect only by 0.11
    p = make_params(lambda_p_total=0.1, r_h=0.3, power_s=5e-4)
    rho = 1.0 - p_harvest(p.lambda_p, p.r_h) - p_guard(p.lambda_p, p.r_g)
    assert 1000 * rho ** 100 > 0.1 and cfg.resolved_warmup(p) == 228
    # n overflows at the default window of r_g = 1e300, and the rule stays finite
    huge = make_params(r_g=1e300)
    window = cfg.resolved_window(huge)
    assert huge.lambda_s * window * window == math.inf
    assert cfg.resolved_warmup(huge) == 44534
    # p_h = p_g = 1: each secondary empties and refills in alternate slots
    # forever, so no warm-up bounds the start, and the run is refused
    cycle = make_params(r_g=0.0, lambda_p_total=20.0)
    assert cfg.resolved_warmup(cycle) == math.inf
    with pytest.raises(ValueError, match=r"would run inf warm-up slots \(m_slots = 1\)"):
        estimate_p_t(cycle, SimConfig(n_slots=2, n_replications=1))
    # an explicit warm-up wins
    assert SimConfig(warmup=3).resolved_warmup(cycle) == 3
    # a finite bound past the slot limit (rho = 1 - 3e-10) is refused too
    slow = make_params(r_g=100.0, r_h=1e-4)
    assert sim_module.MAX_REPLICATION_SLOTS < cfg.resolved_warmup(slow) < math.inf
    with pytest.raises(ValueError, match=r"warm-up slots \(m_slots = 1\).*over the limit"):
        estimate_p_t(slow, SimConfig(n_slots=2, n_replications=1))


@pytest.mark.parametrize("r_g, dedicated", [(3.0, False), (3.0, True), (0.0, False)])
def test_default_warmup_couples_empty_and_full_starts(r_g, dedicated):
    # Two runs at figure 9's point on the same streams, one started with
    # every battery empty and one with every battery full: their transmit
    # sets differ at the first slot and agree from the rule's warm-up on.
    # At r_g = 0 a secondary near the dedicated charger alternates forever,
    # so that case is the charger field alone.
    p = make_params(r_g=r_g)
    cfg = SimConfig(n_replications=4, master_seed=11)
    kw = {"dedicated_pt": np.array([p.d_p, 0.0])} if dedicated else {}
    empty = SlotSimulator(p, cfg, _rep_rngs(cfg), **kw)
    full = SlotSimulator(p, cfg, _rep_rngs(cfg), **kw)
    full.battery[:] = p.power_s
    warmup = cfg.resolved_warmup(p)
    for i in range(warmup + 51):
        empty.step()
        full.step()
        same = np.array_equal(empty.st_transmit, full.st_transmit)
        if i == 0:
            assert not same
        elif i >= warmup:
            assert same, i
    # Near the dedicated charger a secondary in its guard disk stays as it
    # started while no charger is within r_h; it never transmits
    assert np.array_equal(empty.battery, full.battery) != dedicated


@pytest.mark.slow
def test_transmit_probability_trends_down_with_slow_charging():
    # no exact chain exists beyond two-slot charging; check the simulated
    # trend across the interval regime
    p = make_params(r_g=4.0, r_h=1.5, power_p=2.0, lambda_s=0.2)
    cfg = SimConfig(n_slots=50, n_replications=4, master_seed=55)
    est = [estimate_p_t(dataclasses.replace(p, power_s=ps), cfg)
           for ps in (0.10, 0.13, 0.16)]
    assert est[0].mean > est[-1].mean + est[0].half_width
