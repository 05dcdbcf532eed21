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
from dataclasses import dataclass, replace

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
    """A Monte Carlo estimate with a 3-sigma half-width, 3 s / sqrt(R) over R
    replications.

    That is a 99.7% interval only as R grows.  The replication means are
    Student-t with R - 1 degrees of freedom, so it covers the truth with
    probability 79.5% at R = 2, 94.2% at R = 4 and 98.5% at R = 10.  A
    single replication falls back to the binomial width over its
    correlated slots, which is narrower still.  ROADMAP item 5 tracks the
    t-quantile fix.
    """

    mean: float
    half_width: float
    n_samples: int


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    window_side   None picks max(20 * r_g, 100); must be >= 4 * r_g, with a finite area
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
        if side is not None and not math.isfinite(side * side):
            raise ValueError(f"window side {side} has an area too large to represent")
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
    """Homogeneous Poisson points in the centered square window, shape (n, 2);
    refused before the draw above 1e18 expected points (16 EB of coordinates)."""
    expected = density * window * window
    if expected > 1e18:
        raise ValueError(f"a window of side {window:g} expects {expected:.4g} points at "
                         f"density {density:g}, over the limit of 1e18")
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
        # A Python set, not np.unique: numpy's set routines import numpy.ma,
        # 12-15 ms that every simulating process, pool workers too, would pay.
        self._off = np.array(sorted({-1 % n, 0, 1 % n}), dtype=np.intp)

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

    An optional ``dedicated_pt`` is an always-active extra charger in the
    batch replications ``dedicated_reps`` (every one when omitted), used to
    realize a conditioned transmitter near a probe receiver.
    """

    def __init__(self, params: NetworkParams, config: SimConfig,
                 rngs: list[np.random.Generator], *, dedicated_pt: np.ndarray | None = None,
                 dedicated_reps: np.ndarray | None = None):
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
            self._dedicated_rep = self._reps if dedicated_reps is None else dedicated_reps
            self._dedicated_xy = np.tile(self.dedicated_pt, (len(self._dedicated_rep), 1))
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

    # -- dynamics --------------------------------------------------------------

    def step(self) -> None:
        p = self.params
        self.pt_xy, self.pt_off = self._draw(p.lambda_p)

        sources = self.pt_xy
        source_rep = np.repeat(self._reps, np.diff(self.pt_off))
        if self.dedicated_pt is not None:
            sources = np.concatenate([sources, self._dedicated_xy])
            source_rep = np.concatenate([source_rep, self._dedicated_rep])

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


def _measured_slots(params: NetworkParams, config: SimConfig, rngs: list[np.random.Generator],
                    measure, *, dedicated_pt: np.ndarray | None = None,
                    dedicated: np.ndarray | None = None) -> None:
    """The slot driver: calls ``measure(sim, reps)`` after each measured slot.

    ``rngs`` holds the streams of the replications to run: one run's
    :func:`_rep_rngs`, or several runs' back to back, which then step
    together (the runs share ``params`` and every setting of ``config`` but
    its seed and replication count).  An optional ``dedicated_pt`` is an
    always-active charger in the replications where the boolean array
    ``dedicated`` is set.

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
    window = config.resolved_window(params)
    expected = params.lambda_s * window * window  # inf, not OverflowError, if huge
    size = max(1, int(_BATCH_SECONDARIES / max(expected, 1.0)))
    for first in range(0, len(rngs), size):
        reps = slice(first, min(first + size, len(rngs)))
        marked = np.flatnonzero(dedicated[reps]) if dedicated_pt is not None else []
        sim = SlotSimulator(params, config, rngs[reps], dedicated_reps=marked,
                            dedicated_pt=dedicated_pt if len(marked) else None)
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

    _measured_slots(params, config, _rep_rngs(config), measure)
    if not n_st.all():
        raise ValueError("window contains no secondary transmitters; "
                         "increase lambda_s or the window side")
    samples = n_st * config.n_slots
    return _combine(hits / samples, samples)


def _path_loss(xy: np.ndarray, alpha: float) -> np.ndarray:
    """Path loss from each point of ``xy`` to the origin."""
    # The window is centered at the origin, so the min-image distance to
    # the origin is the plain norm.
    return np.hypot(xy[:, 0], xy[:, 1]) ** -alpha


def _shot_noise(xy: np.ndarray, power: float, alpha: float,
                rng: np.random.Generator) -> float:
    """Aggregate received power at the origin with fresh unit-mean fading."""
    if len(xy) == 0:
        return 0.0
    return float(np.sum(rng.exponential(size=len(xy)) * power * _path_loss(xy, alpha)))


def _batch_shot_noise(sim: SlotSimulator, kept: np.ndarray, chargers: np.ndarray,
                      extra: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This slot's aggregate power at the origin, with fresh unit-mean
    fading, in each batch replication of ``kept`` (ascending): from its
    active chargers where the batch mask ``chargers`` is set (0 elsewhere),
    and from its transmitting secondaries.  Returns the two sums per
    replication and ``extra`` further gains each, shape (len(kept), extra).

    A replication draws all its gains from its own stream in one call: its
    chargers', its transmitters', then the extra ones, the same stream as
    :func:`_shot_noise` drawing set by set.  The path loss is computed once
    for the batch, and each replication sums its own terms with
    ``np.add.reduce``, the pairwise sum of ``np.sum``; ``np.add.reduceat``
    adds each segment in sequence, which changes the last bits.
    """
    p = sim.params
    n_pt, tx = np.diff(sim.pt_off), np.flatnonzero(sim.st_transmit)
    n_tx = np.diff(np.searchsorted(tx, sim.st_off))
    drawn = np.zeros(sim.n_reps, dtype=bool)
    drawn[kept] = True
    counts = np.empty((len(kept), 3), dtype=np.intp)
    counts[:, 0] = n_pt[kept] * chargers[kept]
    counts[:, 1] = n_tx[kept]
    counts[:, 2] = extra
    # Which set each gain belongs to: 0 chargers, 1 transmitters, 2 extra
    kind = np.repeat(np.tile(np.arange(3), len(kept)), counts.ravel())
    gains = np.empty(len(kind))
    bounds = [0, *np.cumsum(counts.sum(axis=1)).tolist()]
    for r, a, b in zip(kept.tolist(), bounds, bounds[1:]):
        sim.rngs[r].standard_exponential(out=gains[a:b])
    # ``take`` gathers the rows of a 2-D array about ten times faster than ``[]``
    tx_xy = sim.st_xy.take(tx[np.repeat(drawn, n_tx)], axis=0)
    pt_loss = _path_loss(sim.pt_xy, p.alpha)[np.repeat(drawn & chargers, n_pt)]
    i_pt = gains[kind == 0] * p.power_p * pt_loss
    i_tx = gains[kind == 1] * p.power_s * _path_loss(tx_xy, p.alpha)
    return (_segment_sums(i_pt, counts[:, 0]), _segment_sums(i_tx, counts[:, 1]),
            gains[kind == 2].reshape(len(kept), extra))


def _segment_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sums of the consecutive runs of ``counts`` terms, each by ``np.add.reduce``."""
    bounds = [0, *np.cumsum(counts).tolist()]
    return np.array([np.add.reduce(terms[a:b]) for a, b in itertools.pairwise(bounds)],
                    dtype=float)


def _by_replication(values: list, owners: list, n_reps: int) -> list[np.ndarray]:
    """Samples gathered slot by slot, ``values[i]`` measured in the
    replications ``owners[i]``, as one array per replication in slot order."""
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return np.split(np.concatenate(values)[order],
                    np.cumsum(np.bincount(owner, minlength=n_reps))[:-1])


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
        values, owners = [], []

        def measure(sim, reps):
            everyone = np.arange(sim.n_reps)
            values.append(_batch_shot_noise(sim, everyone, np.zeros(sim.n_reps, bool), 0)[1])
            owners.append(everyone + reps.start)

        _measured_slots(p, config, _rep_rngs(config), measure)
        return np.concatenate(_by_replication(values, owners, config.n_replications))
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


def _sinr_samples(params: NetworkParams, runs) -> list[list[np.ndarray]]:
    """SINR samples at a probe receiver at the origin, one array per
    replication, for each checked ``(config, side, conditioning)`` of
    ``runs``.

    The runs step together: their replications make one lockstep batch (or
    several, as the memory cap allows), and a replication draws from its
    own stream as it would alone, so no run changes another's samples.
    """
    p = params
    counts = [config.n_replications for config, _, _ in runs]

    def per_rep(values) -> np.ndarray:
        return np.repeat(values, counts)

    primary = per_rep([side == "primary" for _, side, _ in runs])
    signal_power = np.where(primary, p.power_p, p.power_s)
    # A receiver at its transmitter has infinite SINR, so it never fails.
    path_gain = per_rep([d ** -p.alpha if d > 0 else math.inf
                         for d in (p.d_p if side == "primary" else p.d_s for _, side, _ in runs)])
    reject = per_rep([side == "secondary" and conditioning == "rejection" and p.r_g > 0
                      for _, side, conditioning in runs])
    chargers = per_rep([side != "wit" for _, side, _ in runs])
    rg2 = p.r_g ** 2
    values, owners = [], []

    def measure(sim, reps):
        # A rejecting replication skips the slot, drawing nothing, while an
        # active charger is within r_g of the link's transmitter.
        near = np.zeros(sim.n_reps, dtype=bool)
        if reject[reps].any() and len(sim.pt_xy):
            pt_off = np.asarray(sim.pt_off)
            any_pt = pt_off[:-1] < pt_off[1:]
            # _min_image_d2 overwrites its inputs, and pt_xy feeds the shot noise below.
            d2 = _min_image_d2(sim.pt_xy[:, 0] - p.d_s, sim.pt_xy[:, 1].copy(), sim.window)
            near[any_pt] = np.minimum.reduceat(d2, pt_off[:-1][any_pt]) <= rg2
        kept = np.flatnonzero(~(reject[reps] & near))
        i_pt, i_tx, g = _batch_shot_noise(sim, kept, chargers[reps], 1)
        denom = i_pt + i_tx + p.noise
        signal = g[:, 0] * signal_power[reps][kept] * path_gain[reps][kept]
        sinr = np.full(len(kept), np.inf)
        values.append(np.divide(signal, denom, out=sinr, where=denom > 0))
        owners.append(kept + reps.start)

    rngs = [rng for config, _, _ in runs for rng in _rep_rngs(config)]
    _measured_slots(p, runs[0][0], rngs, measure, dedicated_pt=np.array([p.d_p, 0.0]),
                    dedicated=primary)
    samples = _by_replication(values, owners, len(rngs))
    return [samples[a:b] for a, b in itertools.pairwise(itertools.accumulate(counts, initial=0))]


def _checked_run(params: NetworkParams, config: SimConfig, side: str,
                 conditioning: str | None) -> tuple[SimConfig, str, str]:
    """One outage run, with its conditioning resolved; raises on a bad one."""
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
    # The probe's torus distances (its conditioning, the dedicated charger)
    # hold only for a link shorter than half the window.
    link = "d_p" if side == "primary" else "d_s"
    dist, window = getattr(params, link), config.resolved_window(params)
    if not dist < window / 2.0:
        raise ValueError(f"link distance {link}={dist!r} must be smaller than half the "
                         f"window side {window!r}")
    return config, side, conditioning


def _outage_curves(params: NetworkParams, runs, thetas) -> list[list[SimEstimate]]:
    """:func:`outage_curve` of each ``(config, side, conditioning)`` of
    ``runs``, the runs stepped together in one lockstep batch; their
    configs may differ in the seed and the replication count only."""
    runs = [_checked_run(params, *run) for run in runs]
    if len({replace(config, master_seed=0, n_replications=1) for config, _, _ in runs}) > 1:
        raise ValueError("outage runs stepped together may differ only in their seeds "
                         "and replication counts")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    curves = []
    for (config, _, _), samples in zip(runs, _sinr_samples(params, runs)):
        per_theta_means = [[] for _ in thetas]
        per_theta_counts = [[] for _ in thetas]
        total_slots = config.n_replications * config.n_slots
        total_kept = 0
        for sinr in samples:
            total_kept += len(sinr)
            if len(sinr) == 0:
                continue
            for i, th in enumerate(thetas):
                per_theta_means[i].append(float(np.mean(sinr < th)))
                per_theta_counts[i].append(len(sinr))
        if total_kept == 0 or total_kept / total_slots < 1e-4:
            raise ConditioningTooRareError(
                f"conditioning event too rare: kept {total_kept} of {total_slots} slots")
        curves.append([_combine(per_theta_means[i], per_theta_counts[i])
                       for i in range(len(thetas))])
    return curves


def outage_curve(params: NetworkParams, config: SimConfig, side: str,
                 thetas, *, conditioning: str | None = None) -> list[SimEstimate]:
    """Simulated outage probabilities at several SINR thresholds.

    One dynamics run per replication supplies the SINR samples for every
    threshold.  ``side`` selects the probe link: 'primary' (extra always-on
    charger at distance d_p), 'secondary' (transmitter at distance d_s,
    slots rejected while any active charger is within r_g of it), or 'wit'
    (chargers on a dedicated band contribute no interference).
    ``conditioning`` may be set to 'none' for an unconditioned secondary
    estimate.  The link distance must be below half the window side.
    """
    return _outage_curves(params, [(config, side, conditioning)], thetas)[0]


def estimate_outage(params: NetworkParams, config: SimConfig, side: str) -> SimEstimate:
    """Simulated outage probability at the SINR target from ``params``."""
    theta = params.theta_p if side == "primary" else params.theta_s
    return outage_curve(params, config, side, [theta])[0]
