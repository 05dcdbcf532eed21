"""Slotted Monte Carlo simulation of the coexisting networks.

The simulator advances battery states of secondary transmitters over time
slots against a Poisson field of primary transmitters, and estimates
transmit probabilities, interference distributions, and outage
probabilities directly from the dynamics.  It is the independent oracle for
every closed form in :mod:`rfharvest.analytics`.

All distances use the torus (wrap-around) metric, which removes window-edge
bias from interference sums without oversized windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import p_guard, transmission_probability
from .params import NetworkParams, charging_geometry

__all__ = [
    "SimConfig",
    "SimEstimate",
    "ConditioningTooRareError",
    "SlotSimulator",
    "estimate_p_t",
    "interference_samples",
    "estimate_outage",
    "outage_curve",
]


class ConditioningTooRareError(RuntimeError):
    """The rejection-sampling acceptance rate is below the usable floor."""


@dataclass(frozen=True)
class SimEstimate:
    """A Monte Carlo estimate with a 99.7% (3-sigma) confidence half-width."""

    mean: float
    half_width: float
    n_samples: int


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    window_side   None picks max(20 * r_g, 100); must be finite and >= 4 * r_g
    n_slots       measured slots per replication (after warm-up)
    warmup        discarded leading slots, >= 0; None picks max(10 * m_slots, 100)
    """

    window_side: float | None = None
    n_slots: int = 200
    n_replications: int = 10
    master_seed: int = 0
    warmup: int | None = None

    def __post_init__(self):
        side = self.window_side
        if side is not None and not (math.isfinite(side) and side > 0):
            raise ValueError(f"window side must be finite and positive, got {side}")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.n_replications < 1:
            raise ValueError("n_replications must be at least 1")

    def resolved_window(self, params: NetworkParams) -> float:
        side = self.window_side
        if side is None:
            side = max(20.0 * params.r_g, 100.0)
        if side < 4.0 * params.r_g:
            raise ValueError(
                f"window side {side} is below 4*r_g = {4 * params.r_g}; interference "
                "truncation would bias estimates")
        return side

    def resolved_warmup(self, m_slots: int) -> int:
        if self.warmup is not None:
            return self.warmup
        return max(10 * m_slots, 100)


def _hppp(density: float, window: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson points in the centered square window, shape (n, 2)."""
    n = rng.poisson(density * window ** 2)
    half = window / 2.0
    return rng.uniform(-half, half, size=(n, 2))


def _min_image_d2(dx: np.ndarray, dy: np.ndarray, side: float) -> np.ndarray:
    """Squared min-image lengths of the displacements ``(dx, dy)``; overwrites both."""
    for d in (dx, dy):
        np.abs(d, out=d)
        np.minimum(d, side - d, out=d)
        d *= d
    dx += dy
    return dx


def _torus_d2(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """Pairwise squared min-image distances, shape (len(a), len(b))."""
    return _min_image_d2(a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1], side)


class _CellList:
    """Fixed points bucketed into an n x n grid of torus cells of side >= ``radius``.

    Two points within ``radius`` of each other lie in the same or adjacent
    cells, so a query visits only the 3 x 3 cells around each query point
    (the cell-list method; Allen & Tildesley, *Computer Simulation of
    Liquids*).  There are at most as many cells as points, which bounds the
    index to O(len(xy)) memory when points are sparse on the scale of
    ``radius``; larger cells only add candidates.
    """

    def __init__(self, xy: np.ndarray, window: float, radius: float):
        n = math.isqrt(len(xy))
        if radius > 0:
            # The margin keeps the cell side strictly above the radius, so
            # rounding in the cell assignment never puts a pair within the
            # radius two cells apart.
            n = min(n, int(window / (radius * (1.0 + 1e-9))))
        self.n = n = max(n, 1)
        self.window = window
        k = self._grid(xy)
        cell = k[:, 0] * n + k[:, 1]
        self._order = np.argsort(cell, kind="stable")
        self._x, self._y = xy[self._order].T.copy()
        self._start = np.zeros(n * n + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=n * n), out=self._start[1:])
        # Deduplicated, so that under three cells per side no cell is visited twice.
        self._off = np.unique(np.arange(-1, 2) % n)

    def _grid(self, xy: np.ndarray) -> np.ndarray:
        """Integer (column, row) cell coordinates of each point, shape (len(xy), 2)."""
        k = np.floor((xy + self.window / 2.0) * (self.n / self.window)).astype(np.intp)
        k %= self.n
        return k

    def nearest_d2(self, query: np.ndarray) -> np.ndarray:
        """Squared min-image distance from each indexed point to its nearest
        ``query`` point, in the order the points were given.

        Exact wherever it is at most ``radius**2``.  Elsewhere the true value
        is above ``radius**2`` too, and this one is at least as large
        (``inf`` when no query point lies in the 3 x 3 cells around it).
        """
        n, off = self.n, self._off
        k = self._grid(query)
        cells = ((k[:, 0, None, None] + off[:, None]) % n * n
                 + (k[:, 1, None, None] + off) % n).reshape(len(query), off.size ** 2)
        lo = self._start[cells]
        counts = self._start[cells + 1] - lo
        q = np.repeat(np.arange(len(query)), counts.sum(axis=1))
        lo, counts = lo.ravel(), counts.ravel()
        idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        qx, qy = query.T
        d2 = _min_image_d2(self._x[idx] - qx[q], self._y[idx] - qy[q], self.window)
        nearest = np.full(len(self._x), np.inf)
        np.minimum.at(nearest, self._order[idx], d2)
        return nearest


class SlotSimulator:
    """Advances the network state slot by slot.

    Per slot: the active primary pattern is a fresh Poisson draw; each full
    secondary outside every guard zone transmits and empties its battery;
    each non-full secondary inside a harvesting zone gains the
    path-loss-scaled power of its nearest charger, capped at capacity.
    Harvested power is a per-slot average, so no fading enters the battery
    dynamics.

    An optional ``dedicated_pt`` is an always-active extra charger, used to
    realize a conditioned transmitter near a probe receiver.
    """

    def __init__(self, params: NetworkParams, config: SimConfig,
                 rng: np.random.Generator, *, st_xy: np.ndarray | None = None,
                 battery: np.ndarray | None = None, dedicated_pt: np.ndarray | None = None):
        self.params = params
        self.rng = rng
        self.window = config.resolved_window(params)
        # The first step redraws this pattern; dropping the draw would shift
        # every seeded stream.
        self.pt_xy = _hppp(params.lambda_p, self.window, rng)
        if st_xy is None:
            st_xy = _hppp(params.lambda_s, self.window, rng)
        self.st_xy = np.asarray(st_xy, dtype=float)
        self.battery = (np.zeros(len(self.st_xy)) if battery is None
                        else np.asarray(battery, dtype=float).copy())
        self.dedicated_pt = None if dedicated_pt is None else np.asarray(dedicated_pt, float)
        self.pt_active = np.ones(len(self.pt_xy), dtype=bool)
        self.st_transmit = np.zeros(len(self.st_xy), dtype=bool)
        self.st_harvest = np.zeros(len(self.st_xy), dtype=bool)
        self._full_level = params.power_s * (1.0 - 1e-12)
        self._rg2 = params.r_g ** 2
        self._rh2 = params.r_h ** 2
        # Nothing beyond both radii matters to a secondary, and secondaries
        # do not move: index them once for the per-slot nearest-charger query.
        self._st_cells = _CellList(self.st_xy, self.window, max(params.r_g, params.r_h))

    # -- per-slot state views ------------------------------------------------

    @property
    def n_st(self) -> int:
        return len(self.st_xy)

    def active_pt_xy(self) -> np.ndarray:
        """Active network chargers this slot (dedicated point excluded)."""
        return self.pt_xy[self.pt_active]

    def transmitting_st_xy(self) -> np.ndarray:
        return self.st_xy[self.st_transmit]

    @property
    def n_transmitting(self) -> int:
        return int(self.st_transmit.sum())

    @property
    def n_harvesting(self) -> int:
        return int(self.st_harvest.sum())

    @property
    def n_idle(self) -> int:
        return self.n_st - self.n_transmitting - self.n_harvesting

    # -- dynamics --------------------------------------------------------------

    def step(self) -> None:
        p = self.params
        self.pt_xy = _hppp(p.lambda_p, self.window, self.rng)
        self.pt_active = np.ones(len(self.pt_xy), dtype=bool)

        sources = self.active_pt_xy()
        if self.dedicated_pt is not None:
            sources = np.vstack([sources, self.dedicated_pt[None, :]])

        nearest2 = self._st_cells.nearest_d2(sources)

        full = self.battery >= self._full_level
        in_guard = nearest2 <= self._rg2 if p.r_g > 0 else np.zeros(self.n_st, dtype=bool)
        in_harv = nearest2 <= self._rh2
        transmit = full & ~in_guard
        harvest = ~full & in_harv

        if harvest.any():
            gain = p.eta * p.power_p * nearest2[harvest] ** (-p.alpha / 2.0)
            self.battery[harvest] = np.minimum(self.battery[harvest] + gain, p.power_s)
        self.battery[transmit] = 0.0
        self.st_transmit = transmit
        self.st_harvest = harvest


# -- estimators ----------------------------------------------------------------


def _rep_rngs(config: SimConfig) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_replications)
    return [np.random.default_rng(s) for s in seeds]


def _measured_slots(params: NetworkParams, config: SimConfig, **sim_kwargs):
    """The slot driver: yields ``(sim, slots)`` once per replication.

    ``sim`` is a fresh :class:`SlotSimulator` on the replication's stream;
    iterating ``slots`` runs the warm-up, then yields once after each
    measured slot, so the caller reads that slot's state (and may draw from
    ``sim.rng``) before the next step.
    """
    warmup = config.resolved_warmup(charging_geometry(params).m_slots)

    def slots(sim):
        for i in range(warmup + config.n_slots):
            sim.step()
            if i >= warmup:
                yield

    for rng in _rep_rngs(config):
        sim = SlotSimulator(params, config, rng, **sim_kwargs)
        yield sim, slots(sim)


def _combine(rep_means, rep_counts) -> SimEstimate:
    # Sorting first makes the merge independent of replication scheduling
    # order down to the last bit.
    rep_means = np.sort(np.asarray(rep_means, dtype=float))
    n = int(np.sum(np.sort(np.asarray(rep_counts))))
    mean = float(rep_means.mean())
    if len(rep_means) > 1:
        hw = 3.0 * float(rep_means.std(ddof=1)) / math.sqrt(len(rep_means))
    else:
        # Single replication: fall back to the iid binomial width, which
        # understates the error when samples are correlated within a run.
        hw = 3.0 * math.sqrt(max(mean * (1.0 - mean), 0.0) / max(n, 1))
    return SimEstimate(mean=mean, half_width=hw, n_samples=n)


def estimate_p_t(params: NetworkParams, config: SimConfig) -> SimEstimate:
    """Long-run fraction of (transmitter, slot) pairs in transmitting mode."""
    rep_means, rep_counts = [], []
    for sim, slots in _measured_slots(params, config):
        if sim.n_st == 0:
            raise ValueError("window contains no secondary transmitters; "
                             "increase lambda_s or the window side")
        hits = sum(sim.n_transmitting for _ in slots)
        rep_means.append(hits / (sim.n_st * config.n_slots))
        rep_counts.append(sim.n_st * config.n_slots)
    return _combine(rep_means, rep_counts)


def _shot_noise(xy: np.ndarray, power: float, alpha: float,
                rng: np.random.Generator) -> float:
    """Aggregate received power at the origin with fresh unit-mean fading."""
    if len(xy) == 0:
        return 0.0
    # The window is centered at the origin, so the min-image distance to
    # the origin is the plain norm.
    r = np.hypot(xy[:, 0], xy[:, 1])
    g = rng.exponential(size=len(xy))
    return float(np.sum(g * power * r ** -alpha))


def _cluster_rates(params: NetworkParams, p_t: float) -> tuple[float, float]:
    """(parent density, mean daughters per parent) of the charge-cluster field.

    A parent is a spot where a charger filled the non-full secondaries
    within r_h in one slot: lambda_s (1 - p_t / p_g) pi r_h^2 of them on
    average, since a full secondary is clear (and then transmits) with
    probability p_g per slot.  The parent density makes the mean density of
    the surviving (clear) daughters p_t * lambda_s.
    """
    p = params
    if p_t <= 0.0:
        return 0.0, 0.0
    pg = p_guard(p.lambda_p, p.r_g)
    daughters = p.lambda_s * (1.0 - p_t / pg) * math.pi * p.r_h ** 2
    if daughters <= 0.0:
        return 0.0, 0.0
    return p_t * p.lambda_s / (daughters * pg), daughters


def _cluster_transmitters(params: NetworkParams, window: float, kappa: float,
                          daughters: float, rng: np.random.Generator) -> np.ndarray:
    """One slot of the charge-cluster surrogate for the transmitting secondaries.

    Parents of density ``kappa`` each get Poisson(``daughters``) points
    uniform in the disk of radius r_h around them (wrapped on the torus);
    a fresh active-charger field then silences every daughter within r_g
    of a charger.
    """
    p = params
    half = window / 2.0
    parents = _hppp(kappa, window, rng)
    counts = rng.poisson(daughters, size=len(parents))
    total = int(counts.sum())
    radius = p.r_h * np.sqrt(rng.random(total))
    angle = 2.0 * math.pi * rng.random(total)
    xy = np.repeat(parents, counts, axis=0)
    xy[:, 0] += radius * np.cos(angle)
    xy[:, 1] += radius * np.sin(angle)
    xy = (xy + half) % window - half
    chargers = _hppp(p.lambda_p, window, rng)
    if p.r_g > 0:
        xy = xy[_CellList(xy, window, p.r_g).nearest_d2(chargers) > p.r_g ** 2]
    return xy


def interference_samples(params: NetworkParams, config: SimConfig,
                         mode: str) -> np.ndarray:
    """Per-slot aggregate secondary interference at the origin.

    mode 'exact' measures the transmitting set produced by the slotted
    dynamics.  'approx' draws the paper's surrogate, a fresh uniform Poisson
    pattern of the same average density each slot; 'cluster' draws the
    charge-cluster surrogate of :func:`_cluster_transmitters`, which adds the
    two effects the uniform field lacks: neighbours that one charger filled
    transmit together, and no secondary transmits within r_g of a current
    charger.  Both surrogates have mean density p_t * lambda_s, with p_t the
    analytic transmit probability (its conservative endpoint,
    :attr:`TransmissionProbability.conservative`, when only an interval is
    known, as in ``analyze``).  Fading is redrawn every slot in all modes.
    """
    p = params
    if mode not in ("exact", "approx", "cluster"):
        raise ValueError(f"unknown interference mode {mode!r}")
    if mode == "exact":
        return np.asarray([_shot_noise(sim.transmitting_st_xy(), p.power_s, p.alpha, sim.rng)
                           for sim, slots in _measured_slots(p, config) for _ in slots])
    window = config.resolved_window(p)
    if mode == "cluster":
        kappa, daughters = _cluster_rates(p, transmission_probability(p).conservative)

        def field(rng):
            return _cluster_transmitters(p, window, kappa, daughters, rng)
    else:
        active_density = transmission_probability(p).conservative * p.lambda_s

        def field(rng):
            return _hppp(active_density, window, rng)
    return np.asarray([_shot_noise(field(rng), p.power_s, p.alpha, rng)
                       for rng in _rep_rngs(config) for _ in range(config.n_slots)])


def _sinr_samples(sim: SlotSimulator, slots, side: str, conditioning: str) -> np.ndarray:
    """SINR samples at a probe receiver at the origin over one replication."""
    p, rng = sim.params, sim.rng
    if side == "primary":
        signal_power, link_dist = p.power_p, p.d_p
    else:
        signal_power, link_dist = p.power_s, p.d_s
    link_from = np.array([[link_dist, 0.0]])
    reject = side == "secondary" and conditioning == "rejection" and p.r_g > 0
    rg2 = p.r_g ** 2
    out = []
    for _ in slots:
        act = sim.active_pt_xy()
        if reject and len(act) and _torus_d2(act, link_from, sim.window).min() <= rg2:
            continue
        i_p = 0.0 if side == "wit" else _shot_noise(act, p.power_p, p.alpha, rng)
        i_s = _shot_noise(sim.transmitting_st_xy(), p.power_s, p.alpha, rng)
        g = rng.exponential()
        denom = i_p + i_s + p.noise
        signal = g * signal_power * link_dist ** -p.alpha
        out.append(signal / denom if denom > 0 else np.inf)
    return np.asarray(out)


def outage_curve(params: NetworkParams, config: SimConfig, side: str,
                 thetas, *, conditioning: str | None = None) -> list[SimEstimate]:
    """Simulated outage probabilities at several SINR thresholds.

    One dynamics run per replication supplies the SINR samples for every
    threshold.  ``side`` selects the probe link: 'primary' (extra always-on
    charger at distance d_p), 'secondary' (transmitter at distance d_s,
    slots rejected while any active charger is within r_g of it), or 'wit'
    (chargers on a dedicated band contribute no interference).
    ``conditioning`` may be set to 'none' for an unconditioned secondary
    estimate.
    """
    if side not in ("primary", "secondary", "wit"):
        raise ValueError(f"unknown side {side!r}")
    if conditioning is None:
        conditioning = "rejection" if side == "secondary" else "none"
    if conditioning not in ("rejection", "none"):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    if conditioning == "rejection" and side != "secondary":
        raise ValueError("rejection conditioning applies to the secondary side only")

    if side == "secondary" and conditioning == "rejection":
        pg = p_guard(params.lambda_p, params.r_g)
        if pg < 1e-4:
            raise ConditioningTooRareError(
                f"conditioning event too rare: expected acceptance rate {pg:.3e}")

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    sim_kwargs = {"dedicated_pt": np.array([params.d_p, 0.0])} if side == "primary" else {}
    per_theta_means = [[] for _ in thetas]
    per_theta_counts = [[] for _ in thetas]
    total_slots = total_kept = 0
    for sim, slots in _measured_slots(params, config, **sim_kwargs):
        sinr = _sinr_samples(sim, slots, side, conditioning)
        total_slots += config.n_slots
        total_kept += len(sinr)
        if len(sinr) == 0:
            continue
        for i, th in enumerate(thetas):
            per_theta_means[i].append(float(np.mean(sinr < th)))
            per_theta_counts[i].append(len(sinr))
    if total_kept == 0 or total_kept / total_slots < 1e-4:
        raise ConditioningTooRareError(
            f"conditioning event too rare: kept {total_kept} of {total_slots} slots")
    return [_combine(per_theta_means[i], per_theta_counts[i]) for i in range(len(thetas))]


def estimate_outage(params: NetworkParams, config: SimConfig, side: str,
                    *, conditioning: str | None = None) -> SimEstimate:
    """Simulated outage probability at the SINR target from ``params``."""
    theta = params.theta_p if side == "primary" else params.theta_s
    return outage_curve(params, config, side, [theta], conditioning=conditioning)[0]
