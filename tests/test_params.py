import dataclasses
import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfharvest import (NetworkParams, ParameterError, RegimeWarning,
                       charging_geometry, load_params, params_from_dict,
                       params_to_dict, validate)
from rfharvest.params import _each

from conftest import make_params, valid_params


def test_validate_accepts_reference_setup():
    # alpha=4, eta=0.1, r_g=3, r_h=1 is the standard operating point
    p = make_params()
    assert validate(p, warn=False) is p


def test_alpha_at_boundary_rejected():
    with pytest.raises(ParameterError, match="alpha must exceed 2"):
        make_params(alpha=2.0)


def test_harvest_radius_must_sit_inside_guard():
    with pytest.raises(ParameterError, match="r_h.*must be smaller"):
        make_params(r_g=2.0, r_h=3.0)


def test_primary_link_must_sit_inside_guard():
    with pytest.raises(ParameterError, match="d_p.*must be smaller"):
        make_params(d_p=3.5)


def test_every_violation_reported():
    p = NetworkParams(lambda_p_total=-1.0, lambda_s=0.1, power_p=1.0, power_s=0.1,
                      alpha=1.5, eta=1.2, r_g=3.0, r_h=1.0, d_p=0.5, d_s=0.5,
                      theta_p=-5.0, theta_s=5.0, eps_p=0.2, eps_s=1.2)
    with pytest.raises(ParameterError) as exc:
        validate(p, warn=False)
    assert len(exc.value.problems) == 5


def test_zero_guard_radius_allowed():
    p = make_params(r_g=0.0)
    assert p.r_g == 0.0


def test_active_density_is_thinned_deployment():
    p = make_params(access_prob=0.25, lambda_p_total=0.04)
    assert p.lambda_p == pytest.approx(0.01, rel=1e-15)


def test_regime_warning_on_weak_separation():
    with pytest.warns(RegimeWarning):
        validate(make_params(power_s=0.5, power_p=1.0), warn=True)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate(make_params(power_s=0.5, power_p=1.0), warn=False)


# -- charging geometry -----------------------------------------------------------


def test_two_slot_geometry():
    p = make_params(power_s=0.05, power_p=2.0, r_h=1.5)
    g = charging_geometry(p)
    assert g.m_slots == 2
    assert g.h1 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert g.h2 is None


def test_three_slot_geometry():
    p = make_params(power_s=0.1, power_p=2.0, r_h=1.5)
    g = charging_geometry(p)
    assert g.m_slots == 3
    assert g.h1 == pytest.approx(2.0 ** 0.25, rel=1e-12)
    assert g.h2 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_exactly_at_threshold_is_single_slot():
    p = make_params(power_p=2.0, r_h=1.5)
    threshold = p.eta * p.power_p * p.r_h ** -p.alpha
    g = charging_geometry(dataclasses.replace(p, power_s=threshold))
    assert g.m_slots == 1


def test_zero_power_rejected():
    with pytest.raises(ParameterError, match="ST power must be positive"):
        charging_geometry(dataclasses.replace(make_params(), power_s=0.0))


def test_unresolvable_charging_radius_raises():
    # m = 2, but at this alpha h1 rounds to r_h: an invariant, not an assert
    p = make_params(alpha=1e7, r_h=1.0, eta=0.1, power_p=1.0, power_s=0.1 * (1 + 1e-10))
    with pytest.raises(ParameterError, match="charging radii"):
        charging_geometry(p)


def _brute_force_slots(power_s, threshold):
    m = 1
    while m * threshold < power_s * (1.0 - 1e-12):
        m += 1
    return m


@settings(max_examples=150, deadline=None)
@given(valid_params())
def test_slot_count_matches_brute_force(p):
    threshold = p.eta * p.power_p * p.r_h ** -p.alpha
    ratio = p.power_s / threshold
    assume(abs(ratio - round(ratio)) > 1e-6)
    assume(ratio < 1000)
    assert charging_geometry(p).m_slots == _brute_force_slots(p.power_s, threshold)


@settings(max_examples=100, deadline=None)
@given(valid_params(), st.floats(1.01, 10.0))
def test_slot_count_monotone_in_power(p, factor):
    m1 = charging_geometry(p).m_slots
    m2 = charging_geometry(dataclasses.replace(p, power_s=p.power_s * factor)).m_slots
    assert m2 >= m1


@settings(max_examples=100, deadline=None)
@given(valid_params())
def test_radii_ordering_and_ratio(p):
    g = charging_geometry(p)
    if g.m_slots >= 3:
        assert 0 < g.h1 < g.h2 < p.r_h
        assert g.h2 == pytest.approx(g.h1 * 2.0 ** (1.0 / p.alpha), rel=1e-12)
    elif g.m_slots == 2:
        assert 0 < g.h1 < p.r_h


@settings(max_examples=150, deadline=None)
@given(valid_params())
def test_regime_boundaries(p):
    threshold = p.eta * p.power_p * p.r_h ** -p.alpha
    ratio = p.power_s / threshold
    assume(abs(ratio - 1.0) > 1e-6 and abs(ratio - 2.0) > 1e-6)
    m = charging_geometry(p).m_slots
    assert (m == 1) == (p.power_s <= threshold)
    assert (m == 2) == (threshold < p.power_s <= 2 * threshold)


# -- JSON configuration ------------------------------------------------------------


def test_round_trip_through_json(tmp_path):
    p = make_params(noise=0.01, access_prob=0.5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(params_to_dict(p)))
    assert load_params(path, warn=False) == p


def test_unknown_key_rejected():
    data = params_to_dict(make_params())
    data["lambda_q"] = 1.0
    with pytest.raises(ParameterError, match="unknown parameter.*lambda_q"):
        params_from_dict(data)


def test_missing_key_rejected():
    data = params_to_dict(make_params())
    del data["alpha"]
    with pytest.raises(ParameterError, match="missing parameter.*alpha"):
        params_from_dict(data)


def test_defaults_applied_when_omitted():
    data = params_to_dict(make_params())
    del data["access_prob"]
    del data["noise"]
    p = params_from_dict(data, warn=False)
    assert p.access_prob == 1.0 and p.noise == 0.0


def test_non_object_document_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParameterError):
        load_params(path)


# -- _each: one call per distinct row, the same bits as a map over the rows --


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


NAN_PAYLOADS = [_float(0x7FF8000000000001), _float(0x7FF800000000BEEF),
                _float(-0x0008000000000000)]  # the last one has the sign bit set
POOL = [0.0, -0.0, 1.5, -2.0, 0.1, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
        1e300, 1e-300, *NAN_PAYLOADS]


def _revealing(*xs) -> float:
    """A float that differs whenever an argument's bit pattern does."""
    return float(hash(tuple(map(_bits, xs))) % 1_000_003)


def _per_row(fn, *args, dtype=float):
    """The plain map over the rows that ``_each`` must equal."""
    n = len(next(a for a in args if isinstance(a, np.ndarray)))
    rows = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a, n) for a in args]
    return np.fromiter(map(fn, *rows), dtype, count=n)


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == object:
        assert [(type(v), v) for v in got.tolist()] == [(type(v), v) for v in want.tolist()]
    else:
        assert got.tobytes() == want.tobytes()


def _counted(fn):
    def call(*xs):
        call.calls += 1
        return fn(*xs)
    call.calls = 0
    return call


def test_each_keys_on_bit_patterns():
    # -0.0 next to 0.0 and NaNs with different payloads are distinct rows;
    # float equality would merge the zeros and never match a NaN.
    col = np.array(([0.0, -0.0, *NAN_PAYLOADS] * 4 + [math.inf, -math.inf] * 2) * 20)
    fn = _counted(_revealing)
    got = _each(fn, col)
    _assert_same(got, _per_row(_revealing, col))
    assert fn.calls == 7
    _assert_same(_each(pow, col, 3.0), _per_row(pow, col, 3.0))  # pow(-0.0, 3) is -0.0
    assert math.copysign(1.0, _each(pow, col, 3.0)[1]) == -1.0


def test_each_calls_once_per_distinct_row():
    rng = np.random.default_rng(5)
    x = rng.choice([0.0, -0.0, 0.5, 2.0], size=400)
    y = rng.choice([1.0, 3.0], size=400)
    distinct = {(_bits(a), _bits(b)) for a, b in zip(x.tolist(), y.tolist())}
    fn = _counted(_revealing)
    _assert_same(_each(fn, x, 7.0, y), _per_row(_revealing, x, 7.0, y))
    assert fn.calls == len(distinct) == 8
    # A slow and a fast axis, as a two-sweep grid lays them out, and a
    # third column that repeats with neither.
    slow, fast = (np.tile(g.ravel(), 25) for g in np.meshgrid(
        [0.1, 0.2, -0.0], [1.0, 2.0, 5e-324, 4.0], indexing="ij"))
    third = np.resize([0.5, 0.25, 0.5, 0.125, 0.25], len(slow))
    for args, calls in [((slow, fast), 12), ((slow, 2.0, fast, third), 36)]:
        fn = _counted(_revealing)
        _assert_same(_each(fn, *args), _per_row(_revealing, *args))
        cols = [a.tolist() for a in args if isinstance(a, np.ndarray)]
        assert fn.calls == len({tuple(map(_bits, row)) for row in zip(*cols)}) == calls


def test_each_maps_short_and_seldom_repeating_columns_row_by_row():
    # Below 256 rows, or with more distinct values than half the rows, the
    # gather costs more than the repeats save.
    short = np.resize([0.5, -0.0, 2.0], 255)
    spread = np.resize(np.arange(300.0), 400)
    for col in (short, spread):
        fn = _counted(_revealing)
        _assert_same(_each(fn, col), _per_row(_revealing, col))
        assert fn.calls == len(col)


def test_each_object_result_beyond_int64():
    # m_slots is a column of Python ints and reaches 4.99e25.
    def slots(x):
        return max(1, math.ceil(x))
    col = np.array([4.99e25, 1.5, 4.99e25, 2.0**70, 0.3, 1.5] * 50)
    for rows in (col, col[:6]):
        got = _each(slots, rows, dtype=object)
        _assert_same(got, _per_row(slots, rows, dtype=object))
        assert got[0] == math.ceil(4.99e25) > 2**63
        assert [type(v) for v in got.tolist()] == [int] * len(rows)


def test_each_scalars_and_columns_mixed():
    col = np.resize([0.5, 2.0, 0.5, -0.0, 2.0, 0.5], 300)
    other = np.resize([1.0, 1.0, 3.0, 1.0, 1.0, 3.0, 1.0], 300)
    for n in (300, 7):  # deduplicated, and mapped row by row
        c, o = col[:n], other[:n]
        for args in [(c, 2.5), (2.5, c), (c, 0.5, o), (1.5, o, c)]:
            _assert_same(_each(_revealing, *args), _per_row(_revealing, *args))
    assert _each(pow, 2.0, 0.5) == pow(2.0, 0.5)  # no column: the scalar call


def test_each_empty_one_row_and_uniform_columns():
    empty = np.array([])
    fn = _counted(_revealing)
    _assert_same(_each(fn, empty), np.array([]))
    _assert_same(_each(fn, empty, 2.0, dtype=object), np.array([], dtype=object))
    assert fn.calls == 0
    for v in POOL:
        one = np.array([v])
        _assert_same(_each(_revealing, one, 1.0), _per_row(_revealing, one, 1.0))
        for n in (9, 300):
            fn = _counted(_revealing)
            uniform = np.full(n, v)
            _assert_same(_each(fn, uniform, uniform), _per_row(_revealing, uniform, uniform))
            assert fn.calls == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_each_matches_per_row_map(data):
    # Columns of up to 700 rows drawn from a few special values, so that
    # most of them repeat; a short pool gives few distinct rows.
    n = data.draw(st.one_of(st.integers(0, 40), st.integers(256, 700)), label="rows")
    pool = np.array(data.draw(st.lists(st.sampled_from(POOL), min_size=1,
                                       max_size=len(POOL)), label="pool"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    args = []
    for i in range(data.draw(st.integers(1, 3), label="arguments")):
        if i == 0 or data.draw(st.booleans()):
            args.append(pool[rng.integers(len(pool), size=n)])
        else:
            args.append(data.draw(st.sampled_from(POOL)))
    _assert_same(_each(_revealing, *args), _per_row(_revealing, *args))
