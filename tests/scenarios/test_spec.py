"""Scenario spec: validation, serialisation round-trips, named packs."""

from __future__ import annotations

import json
import math

import pytest

from repro.scenarios.spec import (
    ArrivalSpec,
    FailureSpec,
    MobilitySpec,
    ScenarioError,
    ScenarioSpec,
    TenantSpec,
    build_named,
    load_scenario_file,
    named_scenarios,
)


def _minimal_spec(**overrides) -> ScenarioSpec:
    payload = {
        "name": "t",
        "horizon_s": 1_200.0,
        "n_enbs": 2,
        "tenants": [{"tenant_id": "a"}],
        "mobility": {"model": "commuter-tides", "n_users": 4},
    }
    payload.update(overrides)
    return ScenarioSpec.from_dict(payload)


def test_round_trip_through_dict():
    spec = build_named("commuter-failure", seed=3)
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.canonical_json() == spec.canonical_json()


def test_round_trip_through_json_file(tmp_path):
    spec = build_named("vehicular-corridor", seed=9)
    path = tmp_path / "pack.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert load_scenario_file(str(path)) == spec


def test_named_registry_contains_flagship_packs():
    names = named_scenarios()
    assert "commuter-failure" in names
    assert "commuter-failure-smoke" in names
    assert "vehicular-corridor" in names
    with pytest.raises(ScenarioError, match="unknown scenario"):
        build_named("no-such-pack")


def test_seed_is_the_only_difference_between_builds():
    a, b = build_named("commuter-failure", 1), build_named("commuter-failure", 2)
    assert a.seed == 1 and b.seed == 2
    assert a.to_dict() | {"seed": 2} == b.to_dict()


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"tenants": []}, "at least one tenant"),
        ({"n_enbs": 1}, "edge/core split"),
        ({"rescale_hysteresis": 1.0}, "hysteresis"),
        (
            {"tenants": [{"tenant_id": "a"}, {"tenant_id": "a"}]},
            "duplicate tenant",
        ),
        ({"mobility": {"model": "warp-drive"}}, "unknown mobility model"),
        ({"mobility": {"model": "trace"}}, "requires trace_path"),
        ({"bogus_field": 1}, "unknown scenario fields"),
        ({"admission": "lottery"}, "unknown admission policy"),
        ({"overbooking": "fixed:lots"}, "bad overbooking spec"),
        ({"overbooking": "magic"}, "bad overbooking spec"),
        ({"overbooking": "none:3"}, "bad overbooking spec"),
        ({"orchestrator": {"warp_factor": 9}}, "unknown orchestrator fields"),
        ({"arrivals": {"rate_per_s": 0.0}}, "arrival rate"),
        ({"arrivals": {"rate_per_s": 0.01, "mix": "quantum"}}, "unknown mix"),
        ({"horizon_s": math.inf}, "horizon_s must be finite"),
        ({"horizon_s": math.nan}, "horizon_s must be finite"),
        ({"epoch_s": math.nan}, "epoch_s must be finite"),
        ({"seed": math.nan}, "seed must be finite"),
        ({"n_enbs": math.inf}, "n_enbs must be finite"),
        ({"mobility": {"model": "commuter-tides", "n_users": math.inf}},
         "n_users must be finite"),
        ({"tenants": [{"tenant_id": "a", "base_mbps_per_user": math.nan}]},
         "base_mbps_per_user must be finite"),
        ({"tenants": [{"tenant_id": "a", "max_mbps": math.inf}]}, "max_mbps must be finite"),
        ({"tenants": [{"tenant_id": "a", "price_per_slice": math.nan}]},
         "price_per_slice must be finite"),
        ({"arrivals": {"rate_per_s": math.inf}}, "rate_per_s must be finite"),
        ({"failures": [{"kind": "link", "target": "enb1-mmwave", "start_s": math.nan,
                        "duration_s": 60.0}]}, "start_s must be finite"),
        ({"failures": [{"kind": "link", "target": "enb1-mmwave", "start_s": 100.0,
                        "duration_s": math.inf}]}, "duration_s must be finite"),
    ],
)
def test_validation_rejects_bad_specs(overrides, match):
    with pytest.raises(ScenarioError, match=match):
        _minimal_spec(**overrides)


def test_failures_must_restore_inside_the_horizon():
    with pytest.raises(ScenarioError, match="restore inside the horizon"):
        _minimal_spec(
            failures=[
                {"kind": "link", "target": "enb1-mmwave", "start_s": 1_000.0,
                 "duration_s": 500.0}
            ]
        )
    with pytest.raises(ScenarioError, match="unknown failure kind"):
        FailureSpec("meteor", "earth", 10.0, 5.0).validate(1_000.0)


def test_enb_failure_target_must_exist_in_fleet():
    with pytest.raises(ScenarioError, match="outside the .*fleet"):
        _minimal_spec(
            failures=[
                {"kind": "enb", "target": "enb7", "start_s": 100.0,
                 "duration_s": 50.0}
            ]
        )


def test_tenant_and_mobility_validation():
    with pytest.raises(ScenarioError, match="base_mbps_per_user"):
        TenantSpec(tenant_id="a", base_mbps_per_user=0.0).validate()
    with pytest.raises(ScenarioError, match="min_mbps"):
        TenantSpec(tenant_id="a", min_mbps=9.0, max_mbps=3.0).validate()
    with pytest.raises(ScenarioError, match="n_users"):
        MobilitySpec(model="commuter-tides", n_users=0).validate()


#: ``canonical_json()`` of the built-in packs at seed 0, as recorded
#: before the spec grew ``arrivals``/``admission``/``overbooking``/
#: ``orchestrator``: while those hold their defaults the digest input —
#: and so every recorded digest — must not move.
RECORDED_CANONICAL_JSON = {
    "commuter-failure": (
        '{"epoch_s":60.0,"failures":[{"duration_s":900.0,"kind":"dc","start_s":8208'
        '.0,"target":"edge-dc"},{"duration_s":1200.0,"kind":"dc","start_s":10368.0,'
        '"target":"core-dc"},{"duration_s":900.0,"kind":"link","start_s":12960.0,"t'
        'arget":"enb1-mmwave"},{"duration_s":600.0,"kind":"enb","start_s":14688.000'
        '000000002,"target":"enb3"}],"horizon_s":21600.0,"mobility":{"model":"commu'
        'ter-tides","n_users":120,"params":{},"trace_path":null},"n_enbs":6,"name":'
        '"commuter-failure","rescale_hysteresis":0.1,"seed":0,"tenants":[{"base_mbp'
        's_per_user":0.25,"max_latency_ms":50.0,"max_mbps":30.0,"min_mbps":4.0,"pen'
        'alty_rate":1.0,"price_per_slice":120.0,"service_type":"embb","tenant_id":"'
        'metro-embb"},{"base_mbps_per_user":0.1,"max_latency_ms":10.0,"max_mbps":12'
        '.0,"min_mbps":2.0,"penalty_rate":2.0,"price_per_slice":180.0,"service_type'
        '":"urllc","tenant_id":"city-urllc"}],"testbed":{"plmn_pool_size":16}}'
    ),
    "commuter-failure-smoke": (
        '{"epoch_s":60.0,"failures":[{"duration_s":600.0,"kind":"dc","start_s":1505'
        '.0,"target":"core-dc"},{"duration_s":300.0,"kind":"link","start_s":2705.0,'
        '"target":"enb1-mmwave"}],"horizon_s":3600.0,"mobility":{"model":"commuter-'
        'tides","n_users":24,"params":{},"trace_path":null},"n_enbs":2,"name":"comm'
        'uter-failure-smoke","rescale_hysteresis":0.1,"seed":0,"tenants":[{"base_mb'
        'ps_per_user":0.4,"max_latency_ms":50.0,"max_mbps":24.0,"min_mbps":4.0,"pen'
        'alty_rate":1.0,"price_per_slice":120.0,"service_type":"embb","tenant_id":"'
        'metro-embb"}],"testbed":{}}'
    ),
    "vehicular-corridor": (
        '{"epoch_s":60.0,"failures":[{"duration_s":600.0,"kind":"link","start_s":30'
        '24.0,"target":"enb3-mmwave"}],"horizon_s":7200.0,"mobility":{"model":"vehi'
        'cular-corridor","n_users":16,"params":{},"trace_path":null},"n_enbs":6,"na'
        'me":"vehicular-corridor","rescale_hysteresis":0.1,"seed":0,"tenants":[{"ba'
        'se_mbps_per_user":0.8,"max_latency_ms":30.0,"max_mbps":25.0,"min_mbps":4.0'
        ',"penalty_rate":1.0,"price_per_slice":120.0,"service_type":"automotive","t'
        'enant_id":"fleet-auto"}],"testbed":{"plmn_pool_size":12}}'
    ),
    "commuter-quiet": (
        '{"epoch_s":60.0,"failures":[],"horizon_s":1800.0,"mobility":{"model":"comm'
        'uter-tides","n_users":16,"params":{},"trace_path":null},"n_enbs":2,"name":'
        '"commuter-quiet","rescale_hysteresis":0.1,"seed":0,"tenants":[{"base_mbps_'
        'per_user":0.4,"max_latency_ms":50.0,"max_mbps":30.0,"min_mbps":4.0,"penalt'
        'y_rate":1.0,"price_per_slice":120.0,"service_type":"embb","tenant_id":"met'
        'ro-embb"}],"testbed":{}}'
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_CANONICAL_JSON))
def test_new_fields_at_their_defaults_leave_the_canonical_form_alone(name):
    assert build_named(name, seed=0).canonical_json() == RECORDED_CANONICAL_JSON[name]


def test_arrivals_alone_make_a_scenario_and_round_trip():
    spec = _minimal_spec(
        tenants=[],
        arrivals={"rate_per_s": 0.01, "mix": "embb"},
        admission="knapsack",
        overbooking="forecast:0.9",
        orchestrator={"min_history_for_forecast": 10},
    )
    assert spec.arrivals == ArrivalSpec(rate_per_s=0.01, mix="embb")
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    canonical = json.loads(spec.canonical_json())
    assert canonical["overbooking"] == "forecast:0.9"
    assert canonical["orchestrator"] == {"min_history_for_forecast": 10}
