import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfharvest import (NetworkParams, ParameterError, RegimeWarning,
                       charging_geometry, load_params, params_from_dict,
                       params_to_dict, validate)

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
