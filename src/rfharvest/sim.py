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

import itertools
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


class _CellList:
    """Fixed points bucketed into torus cells of side >= ``radius``, an n x n
    grid for each replication of a batch.

    Two points within ``radius`` of each other lie in the same or adjacent
    cells, so a query visits only the 3 x 3 cells around each query point
    (the cell-list method; Allen & Tildesley, *Computer Simulation of
    Liquids*).  Every replication has its own torus and its own n columns
    of cells, numbered ``rep * n + column``, so a query point sees only the
    points of its own replication.  There are at most as many cells as
    points, which bounds the index to O(len(xy)) memory when points are
    sparse on the scale of ``radius``; larger cells only add candidates.
    """

    def __init__(self, xy: np.ndarray, window: float, radius: float,
                 rep: np.ndarray | None = None, n_reps: int = 1):
        """``rep`` holds each point's replication in ``range(n_reps)`` (all 0
        when omitted: a batch of one)."""
        n = math.isqrt(len(xy) // n_reps)
        if radius > 0:
            # The margin keeps the cell side strictly above the radius, so
            # rounding in the cell assignment never puts a pair within the
            # radius two cells apart.
            n = min(n, int(window / (radius * (1.0 + 1e-9))))
        self.n = n = max(n, 1)
        self.window = window
        # Each column of cells is stored with a copy of its last row before
        # its first row and of its first row after its last, so that the 3
        # cells of a column around any row are one contiguous run.
        self._m = m = n + 2
        k = self._grid(xy)
        column = k[:, 0] if rep is None else rep * n + k[:, 0]
        wrap_lo = np.flatnonzero(k[:, 1] == n - 1)
        wrap_hi = np.flatnonzero(k[:, 1] == 0)
        cell = np.concatenate([column * m + k[:, 1] + 1, column[wrap_lo] * m,
                               column[wrap_hi] * m + n + 1])
        order = np.argsort(cell, kind="stable")
        self._order = np.concatenate([np.arange(len(xy)), wrap_lo, wrap_hi])[order]
        self._x, self._y = xy[self._order].T.copy()
        self._n_points = len(xy)
        self._start = np.zeros(n_reps * n * m + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=n_reps * n * m), out=self._start[1:])
        # Deduplicated, so that under three cells per side no column is
        # visited twice (rows may be, which leaves every minimum unchanged).
        self._off = np.unique(np.arange(-1, 2) % n)

    def _grid(self, xy: np.ndarray) -> np.ndarray:
        """Integer (column, row) cell coordinates of each point, shape (len(xy), 2)."""
        k = np.floor((xy + self.window / 2.0) * (self.n / self.window)).astype(np.intp)
        k %= self.n
        return k

    def nearest_d2(self, query: np.ndarray, rep: np.ndarray | None = None) -> np.ndarray:
        """Squared min-image distance from each indexed point to its nearest
        ``query`` point of the same replication (``rep`` as for the indexed
        points), in the order the points were given.

        Exact wherever it is at most ``radius**2``.  Elsewhere the true value
        is above ``radius**2`` too, and this one is at least as large
        (``inf`` when no query point lies in the 3 x 3 cells around it).
        """
        n = self.n
        k = self._grid(query)
        columns = (k[:, 0, None] + self._off) % n
        if rep is not None:
            columns += (rep * n)[:, None]
        # The run of each column from the row below the query's to the row above
        first = columns * self._m + k[:, 1, None]
        lo = self._start[first]
        counts = self._start[first + 3] - lo
        q = np.repeat(np.arange(len(query)), counts.sum(axis=1))
        lo, counts = lo.ravel(), counts.ravel()
        idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        qx, qy = query.T
        d2 = _min_image_d2(self._x[idx] - qx[q], self._y[idx] - qy[q], self.window)
        nearest = np.full(self._n_points, np.inf)
        np.minimum.at(nearest, self._order[idx], d2)
        return nearest


class SlotSimulator:
    """Advances the network state of a batch of replications slot by slot,
    all of them in lockstep.

    Per slot and replication: the active primary pattern is a fresh Poisson
    draw from the replication's own stream; each full secondary outside
    every guard zone transmits and empties its battery; each non-full
    secondary inside a harvesting zone gains the path-loss-scaled power of
    its nearest charger, capped at capacity.  Harvested power is a per-slot
    average, so no fading enters the battery dynamics.

    The replications' secondaries (``st_xy`` with ``battery``,
    ``st_transmit`` and ``st_harvest``) and chargers (``pt_xy``) are
    concatenated in replication order; replication r holds entries
    ``st_off[r]:st_off[r + 1]`` and ``pt_off[r]:pt_off[r + 1]``.  A slot
    draws each replication's chargers from its own stream, then makes one
    nearest-charger query and one battery update for the whole batch.

    An optional ``dedicated_pt`` is an always-active extra charger in every
    replication, used to realize a conditioned transmitter near a probe
    receiver.
    """

    def __init__(self, params: NetworkParams, config: SimConfig,
                 rngs: list[np.random.Generator], *, dedicated_pt: np.ndarray | None = None):
        self.params = params
        self.rngs = list(rngs)
        self.n_reps = len(self.rngs)
        self.window = config.resolved_window(params)
        # The first step redraws these chargers; dropping the draw would
        # shift every seeded stream.
        self.pt_xy, self.pt_off = self._draw(params.lambda_p)
        self._reps = np.arange(self.n_reps)
        self.dedicated_pt = None if dedicated_pt is None else np.asarray(dedicated_pt, float)
        if self.dedicated_pt is not None:
            self._dedicated_xy = np.tile(self.dedicated_pt, (self.n_reps, 1))
        self._full_level = params.power_s * (1.0 - 1e-12)
        self._rg2 = params.r_g ** 2
        self._rh2 = params.r_h ** 2
        self._place(*self._draw(params.lambda_s))

    def _draw(self, density: float) -> tuple[np.ndarray, list[int]]:
        """One Poisson pattern per replication, each from its own stream:
        the concatenated points and the replication offsets."""
        parts = [_hppp(density, self.window, rng) for rng in self.rngs]
        return np.concatenate(parts), list(itertools.accumulate(map(len, parts), initial=0))

    def _place(self, st_xy: np.ndarray, st_off: list[int]) -> None:
        """Put the secondaries at ``st_xy``, replication r's at rows
        ``st_off[r]:st_off[r + 1]``, with empty batteries."""
        self.st_xy, self.st_off = st_xy, st_off
        self.st_rep = np.repeat(self._reps, np.diff(st_off))
        self.battery = np.zeros(len(st_xy))
        self.st_transmit = np.zeros(len(st_xy), dtype=bool)
        self.st_harvest = np.zeros(len(st_xy), dtype=bool)
        # Nothing beyond both radii matters to a secondary, and secondaries
        # do not move: index them once for the per-slot nearest-charger query.
        self._st_cells = _CellList(st_xy, self.window, max(self.params.r_g, self.params.r_h),
                                   self.st_rep, self.n_reps)

    # -- per-slot state views ------------------------------------------------

    @property
    def n_st(self) -> int:
        """Secondaries of the whole batch."""
        return len(self.st_xy)

    @property
    def pt_active(self) -> np.ndarray:
        """Which drawn chargers are active: every one (tracers count them)."""
        return np.ones(len(self.pt_xy), dtype=bool)

    def active_pt_xy(self, r: int) -> np.ndarray:
        """Replication r's active network chargers this slot (dedicated point
        excluded)."""
        return self.pt_xy[self.pt_off[r]:self.pt_off[r + 1]]

    def transmitting_st_xy(self, r: int) -> np.ndarray:
        """Replication r's transmitting secondaries this slot."""
        a, b = self.st_off[r], self.st_off[r + 1]
        return self.st_xy[a:b][self.st_transmit[a:b]]

    # -- dynamics --------------------------------------------------------------

    def step(self) -> None:
        p = self.params
        self.pt_xy, self.pt_off = self._draw(p.lambda_p)

        sources = self.pt_xy
        source_rep = np.repeat(self._reps, np.diff(self.pt_off))
        if self.dedicated_pt is not None:
            sources = np.concatenate([sources, self._dedicated_xy])
            source_rep = np.concatenate([source_rep, self._reps])

        nearest2 = self._st_cells.nearest_d2(sources, source_rep)

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

# A lockstep batch holds consecutive replications whose expected secondaries
# total at most this many (one window-1000 replication at lambda_s = 0.1), so
# a batch's state and per-slot temporaries stay within those of one such
# replication; wider windows run one replication per batch.
_BATCH_SECONDARIES = 2 ** 17

# Most slots (warm-up plus measured) one replication may run.  The default
# warm-up grows with m_slots, which can exceed 1e25 at large transmit
# powers; such a run would never end, so it is refused.
MAX_REPLICATION_SLOTS = 2 ** 31


def _rep_rngs(config: SimConfig) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_replications)
    return [np.random.default_rng(s) for s in seeds]


def _measured_slots(params: NetworkParams, config: SimConfig, measure, **sim_kwargs) -> None:
    """The slot driver: calls ``measure(sim, reps)`` after each measured slot.

    The replications run in lockstep batches.  ``sim`` is the batch's
    :class:`SlotSimulator`, fresh for each batch, and the slice ``reps``
    picks its replications out of all of them, so ``sim`` replication r is
    replication ``reps.start + r``.  Each batch runs the warm-up, then the
    measured slots; ``measure`` reads a slot's state (and may draw from
    ``sim.rngs``) before the next step.  Each replication draws from its own
    stream in the order a lone replication would, and every state update is
    elementwise, so batching changes no value.  A batch is released before
    the next one is built, which a generator could not ensure: its caller
    would hold the last batch while the next one runs.
    """
    m = charging_geometry(params).m_slots
    warmup = config.resolved_warmup(m)
    if warmup + config.n_slots > MAX_REPLICATION_SLOTS:
        raise ValueError(
            f"a replication would run {warmup} warm-up slots (m_slots = {m}) plus "
            f"{config.n_slots} measured slots, over the limit of {MAX_REPLICATION_SLOTS}")
    rngs = _rep_rngs(config)
    expected = params.lambda_s * config.resolved_window(params) ** 2
    size = max(1, int(_BATCH_SECONDARIES / max(expected, 1.0)))
    for first in range(0, len(rngs), size):
        sim = SlotSimulator(params, config, rngs[first:first + size], **sim_kwargs)
        reps = slice(first, first + sim.n_reps)
        for i in range(warmup + config.n_slots):
            sim.step()
            if i >= warmup:
                measure(sim, reps)
        del sim


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
    hits = np.zeros(config.n_replications, dtype=np.int64)
    n_st = np.zeros(config.n_replications, dtype=np.int64)

    def measure(sim, reps):
        hits[reps] += np.bincount(sim.st_rep[sim.st_transmit], minlength=sim.n_reps)
        n_st[reps] = np.diff(sim.st_off)

    _measured_slots(params, config, measure)
    if not n_st.all():
        raise ValueError("window contains no secondary transmitters; "
                         "increase lambda_s or the window side")
    samples = n_st * config.n_slots
    return _combine(hits / samples, samples)


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
        samples = [[] for _ in range(config.n_replications)]

        def measure(sim, reps):
            for r, out in enumerate(samples[reps]):
                out.append(_shot_noise(sim.transmitting_st_xy(r), p.power_s, p.alpha,
                                       sim.rngs[r]))

        _measured_slots(p, config, measure)
        return np.asarray(samples).ravel()
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


def _sinr_samples(params: NetworkParams, config: SimConfig, side: str,
                  conditioning: str) -> list[np.ndarray]:
    """SINR samples at a probe receiver at the origin, one array per replication."""
    p = params
    if side == "primary":
        signal_power, link_dist = p.power_p, p.d_p
    else:
        signal_power, link_dist = p.power_s, p.d_s
    reject = side == "secondary" and conditioning == "rejection" and p.r_g > 0
    rg2 = p.r_g ** 2
    sim_kwargs = {"dedicated_pt": np.array([p.d_p, 0.0])} if side == "primary" else {}
    samples = [[] for _ in range(config.n_replications)]

    def measure(sim, reps):
        for r, out in enumerate(samples[reps]):
            rng = sim.rngs[r]
            act = sim.active_pt_xy(r)
            # _min_image_d2 overwrites its inputs, and ``act`` feeds the shot noise below.
            if reject and len(act) and _min_image_d2(act[:, 0] - link_dist, act[:, 1].copy(),
                                                     sim.window).min() <= rg2:
                continue
            i_p = 0.0 if side == "wit" else _shot_noise(act, p.power_p, p.alpha, rng)
            i_s = _shot_noise(sim.transmitting_st_xy(r), p.power_s, p.alpha, rng)
            g = rng.exponential()
            denom = i_p + i_s + p.noise
            signal = g * signal_power * link_dist ** -p.alpha
            out.append(signal / denom if denom > 0 else np.inf)

    _measured_slots(p, config, measure, **sim_kwargs)
    return [np.asarray(out) for out in samples]


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
    per_theta_means = [[] for _ in thetas]
    per_theta_counts = [[] for _ in thetas]
    total_slots = config.n_replications * config.n_slots
    total_kept = 0
    for sinr in _sinr_samples(params, config, side, conditioning):
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


def estimate_outage(params: NetworkParams, config: SimConfig, side: str) -> SimEstimate:
    """Simulated outage probability at the SINR target from ``params``."""
    theta = params.theta_p if side == "primary" else params.theta_s
    return outage_curve(params, config, side, [theta])[0]
