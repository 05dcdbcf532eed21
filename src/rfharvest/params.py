"""Network parameter types, validation, and charging geometry.

All quantities are linear-scale in consistent abstract units (no dB, no
meters); a slot has unit duration, so per-slot energy and power coincide.

A *table* is a :class:`NetworkParams` whose every field is a float64 column
of one length, one parameter set per row; the closed forms here and in
:mod:`rfharvest.analytics` and :mod:`rfharvest.optimize` evaluate a whole
table at once, and a single parameter set as a one-row table.  Each row's
values equal those of the row's own scalar evaluation bit for bit:
``+ - * /`` keep the scalar expression's order, and every other function is
the ``math`` module's (numpy's vectorised ``exp`` and ``power`` may differ
from libm in the last bit, so the closed forms call none of numpy's
transcendental functions).  Such a function's value depends only on the bit
patterns of its arguments, so :func:`_each` calls it once per distinct row
of them, keyed on int64 views of the floats (never on float equality, which
merges ``-0.0`` with ``0.0``), and gathers the values back to the rows; a
sweep grid repeats most arguments many times.  A check that fails raises for
the first row that fails it.  Rows are independent: a table raises exactly
when one of its rows raises alone, which ``cli._first_error`` uses to find
the first failing row.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

__all__ = [
    "NetworkParams",
    "ChargingGeometry",
    "ParameterError",
    "RegimeWarning",
    "validate",
    "charging_geometry",
    "params_from_dict",
    "params_to_dict",
    "load_params",
]

# Ratio above which a "much smaller than" modeling assumption triggers a
# RegimeWarning: warn when small/large > 1/5.
REGIME_RATIO = 0.2


class ParameterError(ValueError):
    """One or more network parameters violate an invariant.

    ``problems`` lists one human-readable diagnostic per violation.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RegimeWarning(UserWarning):
    """A separation-of-scales assumption is stretched; results may degrade."""


@dataclass(frozen=True)
class NetworkParams:
    """All physical and protocol constants of the two coexisting networks.

    lambda_p_total  deployment density of primary transmitters (per unit area)
    access_prob     per-slot access probability of each primary transmitter
    lambda_s        density of secondary (harvesting) transmitters
    power_p         primary transmit power (also the charging source power)
    power_s         secondary transmit power
    alpha           path-loss exponent, must exceed 2
    eta             harvesting efficiency, in (0, 1)
    r_g             guard-zone radius around each active primary transmitter
                    (0 disables guard zones, as in the dedicated-charger setup)
    r_h             harvesting-zone radius; r_h < r_g whenever r_g > 0
    d_p, d_s        fixed transmitter-receiver link distances
    noise           receiver noise power (sigma^2)
    theta_p, theta_s  SINR targets of the two networks
    eps_p, eps_s    outage-probability constraints, in (0, 1)
    """

    lambda_p_total: float
    lambda_s: float
    power_p: float
    power_s: float
    alpha: float
    eta: float
    r_g: float
    r_h: float
    d_p: float
    d_s: float
    theta_p: float
    theta_s: float
    eps_p: float
    eps_s: float
    access_prob: float = 1.0
    noise: float = 0.0

    @property
    def lambda_p(self) -> float:
        """Density of *active* primary transmitters (independent thinning)."""
        return self.access_prob * self.lambda_p_total


@dataclass(frozen=True)
class ChargingGeometry:
    """Derived charging quantities for a parameter set.

    m_slots is the worst-case number of harvesting slots needed to fill the
    battery.  h1 (defined for m_slots >= 2) is the radius inside which one
    slot fills the battery; h2 (defined for m_slots >= 3) the radius inside
    which one slot provides at least half the capacity.  For a table,
    m_slots is a column of Python ints (it can exceed int64) and an
    undefined radius is NaN.
    """

    m_slots: int
    h1: float | None
    h2: float | None

    _NAN_IS_NONE = ("h1", "h2")


# -- tables ----------------------------------------------------------------------


def _is_table(x) -> bool:
    """Whether ``x`` is a column or a dataclass that holds columns."""
    if isinstance(x, np.ndarray):
        return True
    return is_dataclass(x) and any(isinstance(v, np.ndarray) for v in vars(x).values())


def _table(base: NetworkParams, columns: dict) -> NetworkParams:
    """``base`` as a table whose fields named in ``columns`` take those
    columns, one row per entry (one row when ``columns`` is empty)."""
    n = len(next(iter(columns.values()))) if columns else 1
    table = {name: np.full(n, float(v)) for name, v in params_to_dict(base).items()}
    table.update({name: np.asarray(c, dtype=float) for name, c in columns.items()})
    return NetworkParams(**table)


def _one_row(x):
    """``x`` as a one-row table: numbers become float64 columns, except the
    int fields of a result (m_slots), which become object columns, and a
    None field NaN."""
    if x is None:
        return None
    if isinstance(x, NetworkParams):
        return _table(x, {})
    if is_dataclass(x):
        return replace(x, **{
            f.name: np.array([math.nan if v is None else v],
                             dtype=object if isinstance(v, int) else float)
            for f in fields(x) for v in [getattr(x, f.name)]})
    return np.array([x], dtype=float)


def _scalar(x):
    """The value of a one-row result as a scalar evaluation returns it: each
    column its single value, and NaN None in the fields a dataclass lists
    in ``_NAN_IS_NONE``."""
    if isinstance(x, np.ndarray):
        v = x[0]
        return v.item() if isinstance(v, np.generic) else v
    if isinstance(x, tuple):
        return tuple(map(_scalar, x))
    if is_dataclass(x):
        values = {f.name: _scalar(getattr(x, f.name)) for f in fields(x)}
        for name in getattr(x, "_NAN_IS_NONE", ()):
            if math.isnan(values[name]):
                values[name] = None
        return replace(x, **values)
    return x


def _rowwise(fn):
    """Let a closed form written for tables take one parameter set: the
    arguments become a one-row table, and the result takes the scalar form."""
    @functools.wraps(fn)
    def call(*args):
        if any(map(_is_table, args)):
            return fn(*args)
        return _scalar(fn(*map(_one_row, args)))
    return call


def _take(table, rows):
    """The rows ``rows`` (a slice, mask or index array) of a table."""
    return replace(table, **{f.name: getattr(table, f.name)[rows] for f in fields(table)})


def _dense(key):
    """(first, inverse) of an integer column: ``first`` holds one row of each
    distinct value, in increasing order of value, and row i holds the value
    of row ``first[inverse[i]]``."""
    order = np.argsort(key)
    s = key[order]
    new = np.empty(len(s), bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    inverse = np.empty(len(s), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _bits(c):
    """A float64 column as its int64 bit patterns; an integer column as it is."""
    return c.view(np.int64) if c.dtype == np.float64 else c


def _uniform(c) -> bool:
    """Whether every row of a column holds the bit pattern of its first row."""
    k = _bits(c)
    return bool((k == k[0]).all())


def _distinct(cols):
    """(first, inverse) of the rows of equal-length float64 or integer
    columns: ``first`` holds one row of each distinct row, and row i equals
    row ``first[inverse[i]]``.  None for fewer than 256 rows, or when a
    column holds more distinct values than half its rows: the sorts' fixed
    cost, or the gather back to the rows, then exceeds what the repeats
    save.

    Floats are compared by their int64 bit patterns, never by float
    equality, so ``-0.0`` and ``0.0`` are different rows and so are NaNs
    with different payloads.  Only the first row of each run of equal rows
    is sorted; each column is reduced to codes on its own, a column of one
    bit pattern costing no sort, and the codes of the columns are combined.
    """
    n = len(cols[0])
    if n < 256:
        return None
    keys = [_bits(c) for c in cols]
    new = np.ones(n, bool)
    np.logical_or.reduce([k[1:] != k[:-1] for k in keys], out=new[1:])
    heads = np.flatnonzero(new)
    if len(heads) < n:
        keys = [k[heads] for k in keys]
    first, inverse = np.zeros(1, np.intp), np.zeros(len(heads), np.intp)
    for k in keys:
        if _uniform(k):
            continue
        s = np.sort(k)  # far cheaper than the argsort of _dense
        if np.count_nonzero(s[1:] != s[:-1]) >= n // 2:
            return None
        first_k, inverse_k = _dense(k)
        if len(first) == 1:
            first, inverse = first_k, inverse_k
        else:
            first, inverse = _dense(inverse * len(first_k) + inverse_k)
    if len(heads) < n:
        return heads[first], np.repeat(inverse, np.diff(heads, append=n))
    return first, inverse


def _each(fn, *args, dtype=float):
    """``fn`` of each row of the column arguments, floats broadcast, as a column.

    ``fn`` is a scalar function such as ``math.exp`` or ``pow``, so each
    value is the one a scalar evaluation computes.  A row's value depends
    only on its arguments' bit patterns, so ``fn`` runs once per distinct
    row of them (:func:`_distinct`) and its values are gathered back to the
    rows, which equals a map over the rows bit for bit; a column of one bit
    pattern stands for its value, so when every column is one, ``fn`` runs
    once.  Where :func:`_distinct` declines (a short table, or a column
    that seldom repeats), and for a one-row table or a column that is not
    float64, ``fn`` is mapped over the rows.  Without column arguments this
    is ``fn(*args)``.  A value beyond the float range (also ``pow(0.0, -1.0)``)
    raises ValueError, naming the call of the first row that overflows.
    """
    try:
        return _mapped(fn, args, dtype)
    except (OverflowError, ZeroDivisionError):
        n = max([len(a) for a in args if isinstance(a, np.ndarray)], default=1)
        for row in zip(*[a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in args]):
            try:
                fn(*row)
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"{fn.__name__.lstrip('_')}({', '.join(map(repr, row))}) "
                                 "overflows the float range") from None
        raise


def _mapped(fn, args, dtype):
    cols = [a for a in args if isinstance(a, np.ndarray)]
    if not cols:
        return fn(*args)
    n = len(cols[0])
    codes = None
    if n > 1 and all(c.dtype == np.float64 for c in cols):
        args = [a.item(0) if isinstance(a, np.ndarray) and _uniform(a) else a for a in args]
        cols = [a for a in args if isinstance(a, np.ndarray)]
        if not cols:
            return np.full(n, fn(*args), dtype)
        codes = _distinct(cols)
        if codes:
            first, inverse = codes
            args = [a[first] if isinstance(a, np.ndarray) else a for a in args]
            n = len(first)
    rows = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a, n) for a in args]
    values = np.fromiter(map(fn, *rows), dtype, count=n)
    return values[inverse] if codes else values


def _pow(x, y):
    return _each(pow, x, y)


def _fail(bad, error) -> None:
    """Raise ``error(k)`` for the first row k where ``bad`` holds."""
    if np.any(bad):
        raise error(int(np.argmax(bad)))


def _at(v, k: int):
    """Row k of a column as a Python value; a scalar stands for every row."""
    return v.item(k) if isinstance(v, np.ndarray) else v


def _number(v):
    """A column as it is; a scalar as a float, NaN if it is not a finite number."""
    if isinstance(v, np.ndarray):
        return v
    return float(v) if isinstance(v, (int, float)) and math.isfinite(v) else math.nan


def validate(params: NetworkParams, *, warn: bool = True) -> NetworkParams:
    """Check every parameter invariant, raising ParameterError on failure.

    Collects one diagnostic per violated invariant instead of stopping at
    the first; for a table, those of the first row that violates any.
    Separation-of-scales assumptions (d_p << r_g, lambda_p_total <<
    lambda_s, power_p >> power_s, pi r_h^2 lambda_p << 1) are only warnings
    so that exploratory sweeps are not blocked.

    Returns the parameters unchanged when everything holds.
    """
    p = params
    v = {f: _number(getattr(p, f)) for f in _FIELDS}
    fin = {f: np.isfinite(x) for f, x in v.items()}
    checks = []  # (rows violating, diagnostic for row k), in report order

    def check(bad, message):
        checks.append((bad, message))

    for name in ("lambda_p_total", "lambda_s", "power_p", "power_s",
                 "r_g", "r_h", "d_p", "d_s", "noise"):
        check(~(fin[name] & (v[name] >= 0)), lambda k, name=name: (
            f"{name} must be finite and non-negative, got {_at(getattr(p, name), k)!r}"))

    check(~(fin["access_prob"] & (v["access_prob"] >= 0.0) & (v["access_prob"] <= 1.0)),
          lambda k: f"access_prob must lie in [0, 1], got {_at(p.access_prob, k)!r}")
    check(~(fin["alpha"] & (v["alpha"] > 2)), lambda k: "alpha must exceed 2")
    check(~(fin["eta"] & (v["eta"] > 0.0) & (v["eta"] < 1.0)),
          lambda k: f"eta must lie in (0, 1), got {_at(p.eta, k)!r}")
    for name in ("theta_p", "theta_s"):
        check(~(fin[name] & (v[name] > 0)),
              lambda k, name=name: f"{name} must be positive, got {_at(getattr(p, name), k)!r}")
    for name in ("eps_p", "eps_s"):
        check(~(fin[name] & (v[name] > 0.0) & (v[name] < 1.0)),
              lambda k, name=name: f"{name} must lie in (0, 1), got {_at(getattr(p, name), k)!r}")

    guarded = fin["r_g"] & (v["r_g"] > 0)
    check(guarded & fin["r_h"] & (v["r_h"] >= v["r_g"]), lambda k: (
        f"harvesting radius r_h={_at(p.r_h, k)!r} must be smaller than "
        f"guard radius r_g={_at(p.r_g, k)!r}"))
    check(guarded & fin["d_p"] & (v["d_p"] >= v["r_g"]), lambda k: (
        f"primary link distance d_p={_at(p.d_p, k)!r} must be smaller than "
        f"r_g={_at(p.r_g, k)!r}"))

    bad = functools.reduce(np.logical_or, (b for b, _ in checks))
    _fail(bad, lambda k: ParameterError([message(k) for b, message in checks if _at(b, k)]))

    if warn:
        _warn_regime(p)
    return p


def _warn_regime(p: NetworkParams) -> None:
    """Warn once per stretched assumption, quoting the first row that stretches it."""
    checks = [("d_p", p.d_p, "r_g", p.r_g, p.r_g > 0),
              ("lambda_p_total", p.lambda_p_total, "lambda_s", p.lambda_s, p.lambda_s > 0),
              ("power_s", p.power_s, "power_p", p.power_p, p.power_p > 0),
              ("pi*r_h^2*lambda_p", math.pi * (p.r_h * p.r_h) * p.lambda_p, "unity", 1.0, True)]
    for small_name, small, large_name, large, applies in checks:
        stretched = applies & (small > REGIME_RATIO * large)
        if np.any(stretched):
            k = int(np.argmax(stretched))
            warnings.warn(
                f"{small_name}={_at(small, k):g} is not much smaller than "
                f"{large_name} ({_at(large, k):g}); "
                "analytic approximations assume clear separation",
                RegimeWarning, stacklevel=3)


@_rowwise
def charging_geometry(params: NetworkParams) -> ChargingGeometry:
    """Slot count and zone radii implied by the charging threshold.

    The minimum per-slot harvest (at the harvesting-zone edge) is
    eta * power_p * r_h**-alpha, so the worst-case number of charging slots
    is m = ceil(power_s / that minimum).  A power exactly on a threshold is
    assigned to the smaller m (ceiling semantics); a 1e-12 relative backoff
    absorbs float noise at the boundaries.
    """
    p = params
    _fail(p.power_s <= 0, lambda k: ParameterError(["ST power must be positive"]))
    _fail(p.r_h <= 0, lambda k: ParameterError(
        ["r_h must be positive to define charging geometry"]))
    threshold = p.eta * p.power_p * _pow(p.r_h, -p.alpha)
    _fail(threshold <= 0, lambda k: ParameterError(
        ["per-slot harvest is zero; power_p and eta must be positive"]))
    m = np.maximum(_each(math.ceil, (p.power_s / threshold) * (1.0 - 1e-12), dtype=object), 1)
    two, three = m >= 2, m >= 3
    h1 = np.where(two, _pow(p.power_s / (p.eta * p.power_p), -1.0 / p.alpha), np.nan)
    h2 = np.where(three, _pow(p.power_s / (2.0 * p.eta * p.power_p), -1.0 / p.alpha), np.nan)

    def radii(k):
        return [r for r in (h1.item(k), h2.item(k), p.r_h.item(k)) if not math.isnan(r)]
    # (h1, h2 if m >= 3, r_h) must increase
    _fail(two & (h1 >= np.where(three, h2, p.r_h)) | three & (h2 >= p.r_h),
          lambda k: ParameterError([
              f"charging radii {radii(k)} (h1, h2 if m >= 3, r_h) must increase; "
              f"power_s={p.power_s.item(k)!r} is too close to a charging threshold "
              f"at alpha={p.alpha.item(k)!r}"]))
    return ChargingGeometry(m_slots=m, h1=h1, h2=h2)


_FIELDS = {f.name for f in fields(NetworkParams)}
_REQUIRED = {f.name for f in fields(NetworkParams) if f.default is MISSING}


def params_from_dict(data: dict, *, warn: bool = True) -> NetworkParams:
    """Build parameters from a mapping with exactly the documented keys.

    Unknown keys are an error so that typos in sweep scripts fail loudly,
    and so is a value that is not an int or a float (a bool, a string, null).
    """
    unknown = sorted(set(data) - _FIELDS)
    if unknown:
        raise ParameterError([f"unknown parameter(s): {', '.join(unknown)}"])
    missing = sorted(_REQUIRED - set(data))
    if missing:
        raise ParameterError([f"missing parameter(s): {', '.join(missing)}"])
    values = {}
    for k, v in data.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParameterError([f"{k} must be a number, got {v!r}"])
        try:
            values[k] = float(v)
        except OverflowError:  # an int beyond the float range
            raise ParameterError([f"{k} must be a finite number, got an integer of "
                                  f"{len(str(abs(v)))} digits"]) from None
    return validate(NetworkParams(**values), warn=warn)


def params_to_dict(params: NetworkParams) -> dict:
    return {f.name: getattr(params, f.name) for f in fields(NetworkParams)}


def load_params(path, *, warn: bool = True) -> NetworkParams:
    """Read a JSON configuration document holding one parameter set."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError(["configuration document must be a JSON object"])
    return params_from_dict(data, warn=warn)
