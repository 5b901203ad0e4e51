"""The package's records are immutable NamedTuples: a field cannot be
assigned, no instance has a __dict__, keyword construction and to_dict()
work as before, and a record compares equal to the plain tuple of its
values."""

import pytest

from qkdnet import (
    CompromiseScenario,
    Link,
    SecurityParams,
    ValidationError,
    adversary_view,
    build_routing_scheme,
    enumerate_routes,
    epsilon_qn,
    make_segment,
    p_success_approx,
    run_session,
    run_trials,
)


def records() -> dict:
    seg = make_segment(6, 2)
    params = SecurityParams(eps_auth=0.1, eps_qkd=0.1)
    scheme = build_routing_scheme(seg)
    keys, transcript, _ = run_session(seg, scheme, 8, 0)
    scenario = CompromiseScenario.of(seg, nodes=[3])
    return {
        "Link": Link(1, 2),
        "NetworkSegment": seg,
        "CompromiseScenario": scenario,
        "AttackProbability": p_success_approx(6, 2, 0.1),
        "SecurityParams": params,
        "SecurityReport": epsilon_qn(seg, params),
        "RouteSet": enumerate_routes(seg),
        "RoutingScheme": scheme,
        "SessionKeys": keys,
        "SessionTranscript": transcript,
        "AdversaryView": adversary_view(seg, scheme, scenario),
        "TrialStats": run_trials(seg, 0.1, 0.1, 64, 1),
    }


RECORDS = ("Link", "NetworkSegment", "CompromiseScenario", "AttackProbability",
           "SecurityParams", "SecurityReport", "RouteSet", "RoutingScheme", "SessionKeys",
           "SessionTranscript", "AdversaryView", "TrialStats")


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = records()[name]
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_records_keep_keyword_construction_and_to_dict():
    seg = make_segment(n_nodes=6, density=2)
    assert seg == make_segment(6, 2) == (6, 2)
    assert hash(seg) == hash((6, 2))
    assert seg.to_dict() == {"n": 6, "c": 2}
    assert repr(seg) == "NetworkSegment(n_nodes=6, density=2)"
    params = SecurityParams(eps_qkd=0.2, eps_auth=0.1)
    assert (params.eps_auth, params.eps_qkd) == (0.1, 0.2)
    report = epsilon_qn(seg, params)
    assert report.to_dict()["regime_auth_valid"] is report.regime_flags[0]
    with pytest.raises(ValidationError, match="eps_qkd"):
        SecurityParams(eps_auth=0.1, eps_qkd=float("nan"))
