"""Unit tests for the ``unsound`` classification of implementation checking.

A protocol that decides where the program's knowledge guards prescribe a
different action (or none) is ``unsound`` at that point; the counts below
are exact, so a change to how the verifiers pick the program's action or
classify a disagreement shows up here.
"""

from collections import Counter

from repro.api import Scenario, build_model
from repro.kbp import verify_eba_implementation, verify_sba_implementation
from repro.protocols import FunctionProtocol
from repro.protocols.sba import least_seen_value
from repro.systems.actions import NOOP


def _actions(report):
    """``(protocol_action, knowledge_action)`` counts over the mismatches."""
    assert {mismatch.kind for mismatch in report.mismatches} == {"unsound"}
    return Counter(
        (mismatch.protocol_action, mismatch.knowledge_action)
        for mismatch in report.mismatches
    )


def _flipped(agent, local, time):
    if time < 2:
        return NOOP
    return 1 - least_seen_value(local.seen)


def test_deciding_at_once_on_the_initial_value_is_unsound_for_p():
    model = build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=1))
    rash = FunctionProtocol(lambda agent, local, time: local.init, name="rash")
    report = verify_sba_implementation(model, rash)
    assert report.points_checked == 24
    assert len(report.mismatches) == 6
    assert _actions(report) == {(0, NOOP): 3, (1, NOOP): 3}
    assert not report.is_sound and report.is_optimal
    assert report.summary() == (
        "P (SBA): 0 late and 6 unsound decision points out of 24 checked"
    )


def test_deciding_the_other_value_is_unsound_for_p():
    model = build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=1))
    report = verify_sba_implementation(model, FunctionProtocol(_flipped))
    assert report.points_checked == 216
    assert _actions(report) == {(1, 0): 6, (0, 1): 3}


def test_always_deciding_one_is_unsound_for_p0():
    model = build_model(
        Scenario(exchange="emin", num_agents=3, max_faulty=1, failures="sending")
    )
    report = verify_eba_implementation(
        model, FunctionProtocol(lambda agent, local, time: 1)
    )
    assert report.points_checked == 96
    assert _actions(report) == {(1, 0): 3}
    assert report.summary() == (
        "P0 (EBA): 0 late and 3 unsound decision points out of 96 checked"
    )
