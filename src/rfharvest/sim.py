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
from dataclasses import astuple, dataclass

import numpy as np

from .analytics import p_guard, p_harvest, transmission_probability
from .params import NetworkParams, _is_table, _one_row, _scalar, _take, charging_geometry

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


def _check_area(side: float) -> None:
    """Refuse a window side whose area is beyond the float range."""
    if not math.isfinite(side * side):
        raise ValueError(f"window side {side} has an area too large to represent")


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    window_side   None picks max(20 * r_g, 100); must be >= 4 * r_g, with a finite area
    n_slots       measured slots per replication (after warm-up)
    warmup        discarded leading slots, >= 0; None picks the rule below

    At m_slots = 1 the default warm-up is the smallest t >= 1 with
    n * rho**t <= 1e-6, where n = lambda_s * W**2 is the expected number of
    secondaries in the window W and rho = |1 - p_h - p_g|.  Two copies of
    the dynamics on the same charger fields, started from any two battery
    states, agree on a secondary from its first slot unguarded or
    harvesting (harvesting needs the guard zone, r_h <= r_g), an event of
    probability p_g + p_h each slot; at r_g = 0 they agree unless the empty
    copy harvests, probability p_h.  So after t slots the run is within
    total variation n * rho**t of a stationary start (the coupling
    inequality; Levin, Peres & Wilmer, *Markov Chains and Mixing Times*,
    2nd ed., Thm 5.4).  A secondary inside the dedicated charger's guard
    disk never transmits in either copy, so the bound holds for the
    transmit set, all that the estimators read.  (At r_g = 0 one within r_h
    of the dedicated charger empties and refills in alternate slots
    forever, a cycle no warm-up mixes.)  m_slots >= 2 keeps
    max(10 * m_slots, 100): partial charges need their own argument.
    """

    window_side: float | None = None
    n_slots: int = 200
    n_replications: int = 10
    master_seed: int = 0
    warmup: int | None = None

    def __post_init__(self):
        for name in ("n_slots", "n_replications", "master_seed", "warmup"):
            value = getattr(self, name)
            if value is None and name == "warmup":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        side = self.window_side
        if side is not None and not (math.isfinite(side) and side > 0):
            raise ValueError(f"window side must be finite and positive, got {side}")
        if side is not None:
            _check_area(side)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
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

    def resolved_warmup(self, params: NetworkParams) -> int | float:
        """The warm-up in slots; ``inf`` where no finite one meets the
        bound, which the slot driver refuses."""
        if self.warmup is not None:
            return self.warmup
        m = charging_geometry(params).m_slots
        if m > 1:
            return max(10 * m, 100)
        lam = params.lambda_p
        rho = abs(1.0 - p_harvest(lam, params.r_h) - p_guard(lam, params.r_g))
        if rho == 0.0 or params.lambda_s == 0.0:
            return 1
        # ln(n / 1e-6), finite wherever the window is, also where n overflows
        log_excess = (math.log(params.lambda_s) + 2.0 * math.log(self.resolved_window(params))
                      + math.log(1e6))
        if log_excess <= 0.0:
            return 1
        slots = log_excess / -math.log(rho) if rho < 1.0 else math.inf
        return math.ceil(slots) if math.isfinite(slots) else math.inf


def _hppp(density: float, window: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson points in the centered square window, shape (n, 2);
    refused before the draw for a window whose area overflows (also at
    density 0) or above 1e18 expected points (16 EB of coordinates)."""
    _check_area(window)
    expected = density * window * window
    if expected > 1e18:
        raise ValueError(f"a window of side {window:g} expects {expected:.4g} points at "
                         f"density {density:g}, over the limit of 1e18")
    n = rng.poisson(density * window ** 2)
    half = window / 2.0
    return rng.uniform(-half, half, size=(n, 2))


def _min_image_d2(d: np.ndarray, side: float) -> np.ndarray:
    """Squared min-image lengths of the displacements ``d``, shape (..., 2);
    overwrites ``d``."""
    np.abs(d, out=d)
    np.minimum(d, side - d, out=d)
    d *= d
    return d[..., 0] + d[..., 1]


# Cell keys and point numbers below this bound are stored as int32.
_INT32_INDEX_LIMIT = 2 ** 31


class _CellList:
    """Fixed points bucketed into torus cells of side >= ``radius``, an n x n
    grid for each replication of a batch.

    Two points within ``radius`` of each other lie in the same or adjacent
    cells, so a query visits only the 3 x 3 cells around each query point
    (the cell-list method; Allen & Tildesley, *Computer Simulation of
    Liquids*).  Every replication has its own torus and its own n columns
    of cells, numbered ``rep * n + column``, so a query point sees only the
    points of its own replication.  There are at most as many cells as
    points, and the index holds each point at most 3 times plus its end-row
    copies, which bounds it to O(len(xy)) memory when points are sparse on
    the scale of ``radius``; larger cells only add candidates.
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
        # its first row and of its first row after its last, and block c
        # holds columns c - 1, c and c + 1 so stored, merged by row: the
        # 3 x 3 cells around any cell of column c are one contiguous run.
        self._m = m = n + 2
        # Keys and point numbers are int32 wherever both fit, which halves
        # the build's sort keys and the stored order.
        index = np.int32 if max(n_reps * n * m, len(xy)) < _INT32_INDEX_LIMIT else np.intp
        k = self._grid(xy, index)
        column = k[:, 0] if rep is None else rep.astype(index) * n + k[:, 0]
        wrap_lo = np.flatnonzero(k[:, 1] == n - 1)
        wrap_hi = np.flatnonzero(k[:, 1] == 0)
        point = np.concatenate([np.arange(len(xy), dtype=index), wrap_lo.astype(index),
                                wrap_hi.astype(index)])
        cell = np.concatenate([column * m + k[:, 1] + 1, column[wrap_lo] * m,
                               column[wrap_hi] * m + n + 1])
        # Deduplicated, so that under three cells per side no block holds a
        # point twice (rows may be, which leaves every minimum unchanged).
        # A Python set, not np.unique: numpy's set routines import numpy.ma,
        # 12-15 ms that every simulating process, pool workers too, would pay.
        offsets = sorted({-1 % n, 0, 1 % n})
        c = np.arange(n)[:, None]
        # shift[c, j] moves a key from column c to the same row of block (c + offsets[j]) % n
        shift = (((c + offsets) % n - c) * m).astype(index)
        cell = (cell[:, None] + shift[k[point, 0]]).ravel()
        del k, column, wrap_lo, wrap_hi, shift
        # The order within a cell changes no minimum, so the sort need not be stable
        self._order = np.repeat(point, len(offsets)).take(np.argsort(cell))
        del point
        self._xy = xy.take(self._order, axis=0)
        self._n_points = len(xy)
        self._start = np.zeros(n_reps * n * m + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=n_reps * n * m), out=self._start[1:])

    def _grid(self, xy: np.ndarray, dtype=np.intp) -> np.ndarray:
        """Integer (column, row) cell coordinates of each point, shape (len(xy), 2)."""
        k = np.floor((xy + self.window / 2.0) * (self.n / self.window)).astype(dtype)
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
        k = self._grid(query)
        block = k[:, 0] if rep is None else rep * self.n + k[:, 0]
        # The run of the query's block from the row below the query's to the row above
        first = block * self._m + k[:, 1]
        lo = self._start[first]
        counts = self._start[first + 3] - lo
        idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        d = self._xy.take(idx, axis=0)
        d -= np.repeat(query, counts, axis=0)
        nearest = np.full(self._n_points, np.inf)
        np.minimum.at(nearest, self._order[idx], _min_image_d2(d, self.window))
        return nearest


def _geometry(table: NetworkParams) -> list[tuple]:
    """Each row's bit patterns of the only fields the draws and zones read."""
    names = ("lambda_s", "lambda_p", "r_g", "r_h")
    return list(zip(*(getattr(table, name).view(np.int64).tolist() for name in names)))


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

    ``params`` may be a table whose rows share one :func:`_geometry`: then
    ``battery``, ``st_transmit`` and ``st_harvest`` hold a row per table row
    (one row for a parameter set), and ``self.params`` is table row 0.

    An optional ``dedicated_pt`` is an always-active extra charger in every
    replication, used to realize a conditioned transmitter near a probe
    receiver.
    """

    def __init__(self, params: NetworkParams, config: SimConfig,
                 rngs: list[np.random.Generator], *, dedicated_pt: np.ndarray | None = None):
        rows = params if _is_table(params) else _one_row(params)
        if len(set(_geometry(rows))) > 1:
            raise ValueError("table rows must agree in lambda_s, lambda_p, r_g and r_h")
        self.params = params = _scalar(_take(rows, slice(0, 1)))
        self.rngs = list(rngs)
        self.n_reps = len(self.rngs)
        self.window = config.resolved_window(params)
        _check_area(self.window)  # before r_g is squared below
        # The first step redraws these chargers; dropping the draw would
        # shift every seeded stream.
        self.pt_xy, self.pt_off = self._draw(params.lambda_p)
        self._reps = np.arange(self.n_reps)
        self.dedicated_pt = None if dedicated_pt is None else np.asarray(dedicated_pt, float)
        if self.dedicated_pt is not None:
            self._dedicated_xy = np.tile(self.dedicated_pt, (self.n_reps, 1))
        self._cap = rows.power_s
        self._full_level = rows.power_s[:, None] * (1.0 - 1e-12)
        self._gain = rows.eta * rows.power_p
        self._exponent = -rows.alpha / 2.0
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
        self.battery = np.zeros((len(self._cap), len(st_xy)))
        self.st_transmit = np.zeros(self.battery.shape, dtype=bool)
        self.st_harvest = np.zeros(self.battery.shape, dtype=bool)
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
            source_rep = np.concatenate([source_rep, self._reps])

        nearest2 = self._st_cells.nearest_d2(sources, source_rep)

        full = self.battery >= self._full_level
        in_guard = nearest2 <= self._rg2 if p.r_g > 0 else np.zeros(self.n_st, dtype=bool)
        in_harv = nearest2 <= self._rh2
        transmit = full & ~in_guard
        harvest = ~full & in_harv

        k = np.flatnonzero(harvest)  # 3-8x faster than np.nonzero's (row, column) pairs
        row, st = np.divmod(k, self.n_st)
        battery = self.battery.reshape(-1)
        gain = self._gain[row] * nearest2[st] ** self._exponent[row]
        battery[k] = np.minimum(battery[k] + gain, self._cap[row])
        self.battery[transmit] = 0.0
        self.st_transmit = transmit
        self.st_harvest = harvest


# -- estimators ----------------------------------------------------------------

# A lockstep batch holds consecutive replications whose expected secondaries
# times table rows total at most this many (one window-1000 replication at
# lambda_s = 0.1), so a batch's state and per-slot temporaries stay within
# those of one such replication; a table's rows run in chunks that fit.
_BATCH_SECONDARIES = 2 ** 17

# Most slots (warm-up plus measured) one replication may run.  The default
# warm-up grows with m_slots, which can exceed 1e25 at large transmit
# powers, and at m_slots = 1 without bound as rho nears 1; such a run would
# never end, so it is refused.
MAX_REPLICATION_SLOTS = 2 ** 31


def _rep_rngs(config: SimConfig) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_replications)
    return [np.random.default_rng(s) for s in seeds]


def _measured_slots(params: NetworkParams, config: SimConfig, measure, *,
                    dedicated_pt: np.ndarray | None = None) -> None:
    """The slot driver: steps the replications of ``config`` and calls
    ``measure(sim, reps, rows, live)`` after each measured slot; for a table
    (:class:`SlotSimulator`) row k measures the ``n_slots`` after its own
    warm-up.  An optional ``dedicated_pt`` is an always-active charger in
    every replication.

    The rows run in chunks, each from the streams' start, and the
    replications in lockstep batches.  ``sim`` is the batch's
    :class:`SlotSimulator`, fresh for each batch: its row k is row
    ``rows.start + k``, its replication r is ``reps.start + r``, and the
    mask ``live`` picks its rows measuring.  Each batch runs until its last
    row's measured slots end; ``measure`` reads a slot's state (and may
    draw from ``sim.rngs``) before the next step.  Each replication draws
    from its own stream in the order a lone replication would, and every
    state update is elementwise, so chunking and batching change no value.
    A batch is released before the next one is built, which a generator
    could not ensure: its caller would hold the last batch while the next
    one runs.
    """
    rows = [params] if not _is_table(params) else [
        _scalar(_take(params, slice(k, k + 1))) for k in range(len(params.power_s))]
    warmups = [config.resolved_warmup(row) for row in rows]
    for row, warmup in zip(rows, warmups):
        if warmup + config.n_slots > MAX_REPLICATION_SLOTS:
            raise ValueError(
                f"a replication would run {warmup} warm-up slots (m_slots = "
                f"{charging_geometry(row).m_slots}) plus {config.n_slots} measured slots, "
                f"over the limit of {MAX_REPLICATION_SLOTS}")
    window = config.resolved_window(rows[0])
    expected = rows[0].lambda_s * window * window  # inf, not OverflowError
    chunk = max(1, int(_BATCH_SECONDARIES / max(expected, 1.0)))
    for lo in range(0, len(rows), chunk):
        part = slice(lo, min(lo + chunk, len(rows)))
        table = params if len(rows) <= chunk else _take(params, part)
        size = max(1, int(_BATCH_SECONDARIES / max(expected * len(rows[part]), 1.0)))
        rngs = _rep_rngs(config)
        for first in range(0, len(rngs), size):
            reps = slice(first, min(first + size, len(rngs)))
            sim = SlotSimulator(table, config, rngs[reps], dedicated_pt=dedicated_pt)
            for i in range(max(warmups[part]) + config.n_slots):
                sim.step()
                live = np.array([w <= i < w + config.n_slots for w in warmups[part]])
                if live.any():
                    measure(sim, reps, part, live)
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
    """Long-run fraction of (transmitter, slot) pairs in transmitting mode.

    For a table of one geometry (:class:`SlotSimulator`) one run serves
    each chunk of rows that fits the batch budget, and each field is a
    column whose row k equals, bit for bit, row k's estimate alone.
    """
    hits = np.zeros((np.size(params.power_s), config.n_replications), dtype=np.int64)
    n_st = np.zeros(config.n_replications, dtype=np.int64)

    def measure(sim, reps, rows, live):
        tx = np.flatnonzero(sim.st_transmit[live])
        ends = np.arange(live.sum())[:, None] * sim.n_st + sim.st_off
        hits[rows][live, reps] += np.diff(np.searchsorted(tx, ends), axis=1)
        n_st[reps] = np.diff(sim.st_off)

    _measured_slots(params, config, measure)
    if not n_st.all():
        raise ValueError("window contains no secondary transmitters; "
                         "increase lambda_s or the window side")
    samples = n_st * config.n_slots
    ests = [_combine(h / samples, samples) for h in hits]
    return SimEstimate(*map(np.array, zip(*map(astuple, ests)))) if _is_table(params) else ests[0]


def _path_loss(xy: np.ndarray, alpha: float) -> np.ndarray:
    """Path loss from each point of ``xy`` to the origin."""
    # The window is centered at the origin, so the min-image distance to
    # the origin is the plain norm.
    return np.hypot(xy[:, 0], xy[:, 1]) ** -alpha


def _faded_sum(gains: np.ndarray, power: float, loss: np.ndarray) -> float:
    """Aggregate received power of transmitters of path losses ``loss`` under
    the unit-mean fading ``gains``, summed as ``np.sum`` sums."""
    return float(np.add.reduce(gains * power * loss))


def _shot_noise(xy: np.ndarray, power: float, alpha: float,
                rng: np.random.Generator) -> float:
    """Aggregate received power at the origin with fresh unit-mean fading."""
    return _faded_sum(rng.exponential(size=len(xy)), power, _path_loss(xy, alpha))


def _tx_losses(sim: SlotSimulator) -> tuple[np.ndarray, np.ndarray]:
    """This slot's path losses to the origin of the batch's transmitting
    secondaries, with their replication offsets (replication r's are
    ``tx_off[r]:tx_off[r + 1]``)."""
    tx = np.flatnonzero(sim.st_transmit)
    # ``take`` gathers the rows of a 2-D array about ten times faster than ``[]``
    loss = _path_loss(sim.st_xy.take(tx, axis=0), sim.params.alpha)
    return loss, np.searchsorted(tx, sim.st_off)


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

        def measure(sim, reps, _rows, _live):
            tx_loss, tx_off = _tx_losses(sim)
            for r, rng in enumerate(sim.rngs):
                a, b = tx_off[r], tx_off[r + 1]
                samples[reps.start + r].append(
                    _faded_sum(rng.standard_exponential(b - a), p.power_s, tx_loss[a:b]))

        _measured_slots(p, config, measure)
        return np.asarray(samples, dtype=float).ravel()
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


def _sinr_samples(params: NetworkParams, config: SimConfig, side: str) -> list[np.ndarray]:
    """SINR samples at a probe receiver at the origin, one array per
    replication, for a checked ``side``."""
    p = params
    signal_power, link_dist = (p.power_p, p.d_p) if side == "primary" else (p.power_s, p.d_s)
    # A receiver at its transmitter has infinite SINR, so it never fails.
    path_gain = link_dist ** -p.alpha if link_dist > 0 else math.inf
    reject = side == "secondary" and p.r_g > 0
    rg2 = p.r_g ** 2
    samples = [[] for _ in range(config.n_replications)]

    def measure(sim, reps, _rows, _live):
        tx_loss, tx_off = _tx_losses(sim)
        # Chargers on a dedicated band reach no wit receiver
        pt_loss = np.empty(0) if side == "wit" else _path_loss(sim.pt_xy, p.alpha)
        if reject:
            close = _min_image_d2(sim.pt_xy - (p.d_s, 0.0), sim.window) <= rg2
        for r, rng in enumerate(sim.rngs):
            a, b = sim.pt_off[r], sim.pt_off[r + 1]
            # A rejecting replication skips the slot, drawing nothing, while an
            # active charger is within r_g of the link's transmitter.
            if reject and close[a:b].any():
                continue
            if side == "wit":
                a = b
            c, d = tx_off[r], tx_off[r + 1]
            # One call draws the chargers' gains, the transmitters', then the signal's
            g = rng.standard_exponential(b - a + d - c + 1)
            denom = (_faded_sum(g[:b - a], p.power_p, pt_loss[a:b])
                     + _faded_sum(g[b - a:-1], p.power_s, tx_loss[c:d]) + p.noise)
            signal = g[-1] * signal_power * path_gain
            samples[reps.start + r].append(signal / denom if denom > 0 else math.inf)

    _measured_slots(p, config, measure,
                    dedicated_pt=np.array([p.d_p, 0.0]) if side == "primary" else None)
    return [np.asarray(values, dtype=float) for values in samples]


def outage_curve(params: NetworkParams, config: SimConfig, side: str,
                 thetas) -> list[SimEstimate]:
    """Simulated outage probabilities at several SINR thresholds.

    One dynamics run per replication supplies the SINR samples for every
    threshold.  ``side`` selects the probe link: 'primary' (extra always-on
    charger at distance d_p), 'secondary' (transmitter at distance d_s,
    slots rejected while any active charger is within r_g of it),
    'secondary-unconditioned' (the same link, no slot rejected) or 'wit'
    (chargers on a dedicated band contribute no interference).  The link
    distance must be below half the window side.
    """
    if side not in ("primary", "secondary", "secondary-unconditioned", "wit"):
        raise ValueError(f"unknown side {side!r}")
    if side == "secondary":
        pg = p_guard(params.lambda_p, params.r_g)
        if pg < 1e-4:
            raise ConditioningTooRareError(
                f"conditioning event too rare: expected acceptance rate {pg:.3e}")
    # The probe's torus distances (its conditioning, the dedicated charger)
    # hold only for a link shorter than half the window.
    link = "d_p" if side == "primary" else "d_s"
    dist, window = getattr(params, link), config.resolved_window(params)
    _check_area(window)  # before the probe squares r_g
    if not dist < window / 2.0:
        raise ValueError(f"link distance {link}={dist!r} must be smaller than half the "
                         f"window side {window!r}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not thetas.size:
        raise ValueError("an outage curve needs at least one SINR threshold")
    if not (np.isfinite(thetas) & (thetas > 0)).all():
        raise ValueError(f"SINR thresholds must be finite and positive, got {thetas.tolist()}")

    kept = [np.sort(sinr) for sinr in _sinr_samples(params, config, side) if len(sinr)]
    n_kept = np.array([len(sinr) for sinr in kept], dtype=np.int64)
    total_kept, total_slots = int(n_kept.sum()), config.n_replications * config.n_slots
    if total_kept == 0 or total_kept / total_slots < 1e-4:
        raise ConditioningTooRareError(
            f"conditioning event too rare: kept {total_kept} of {total_slots} slots")
    # Row k, column i: replication k's samples below threshold i
    below = np.array([np.searchsorted(sinr, thetas) for sinr in kept])
    return [_combine(below[:, i] / n_kept, n_kept) for i in range(len(thetas))]


def estimate_outage(params: NetworkParams, config: SimConfig, side: str) -> SimEstimate:
    """Simulated outage probability at the SINR target from ``params``."""
    theta = params.theta_p if side == "primary" else params.theta_s
    return outage_curve(params, config, side, [theta])[0]
