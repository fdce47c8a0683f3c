"""Integration tests: FloodSet earliest-decision results (E4, condition (2)).

Section 7.1 of the paper: the textbook stopping time ``t + 1`` is not the
earliest time at which ``B^N_i CB_N ∃v`` holds; when ``t >= n - 1`` the
condition already holds at time ``n - 1`` (the counterexample instance is
``n = 3, t = 2``), leading to the revised condition (2), which both model
checking and synthesis confirm.
"""

import pytest

from repro.analysis import (
    floodset_condition_hypothesis,
    naive_floodset_hypothesis,
)
from repro.analysis.earliest import (
    earliest_condition_renderings,
    earliest_decision_summary,
)
from repro.core.synthesis import synthesize_sba
from repro.api import Scenario, build_model
from repro.kbp import verify_sba_implementation
from repro.protocols import FloodSetRevisedProtocol, FloodSetStandardProtocol
from repro.protocols.sba import floodset_critical_time


class TestCounterexampleInstance:
    """The paper's ``n = 3, t = 2`` example."""

    def test_condition_holds_before_t_plus_one(self, floodset_3_2_synthesis):
        result = floodset_3_2_synthesis
        # At time n-1 = 2 < t+1 = 3 the condition is already available.
        predicate = result.conditions.get(0, 2, 0)
        assert not predicate.always_false()

    def test_naive_hypothesis_is_refuted(self, floodset_3_2_synthesis):
        hypothesis = naive_floodset_hypothesis(3, 2, value=0)
        report = floodset_3_2_synthesis.conditions.check_hypothesis(0, hypothesis)
        assert not report.confirmed

    def test_revised_condition_two_is_confirmed(self, floodset_3_2_synthesis):
        for value in range(2):
            hypothesis = floodset_condition_hypothesis(3, 2, value=value)
            report = floodset_3_2_synthesis.conditions.check_hypothesis(value, hypothesis)
            assert report.confirmed, report.summary()

    def test_standard_protocol_is_not_optimal(self, floodset_3_2_model):
        report = verify_sba_implementation(
            floodset_3_2_model, FloodSetStandardProtocol(3, 2)
        )
        assert report.is_sound
        assert not report.is_optimal
        assert report.late_mismatches()

    def test_revised_protocol_is_optimal(self, floodset_3_2_model):
        report = verify_sba_implementation(
            floodset_3_2_model, FloodSetRevisedProtocol(3, 2)
        )
        assert report.ok, report.summary()

    def test_earliest_summary_matches_critical_time(self, floodset_3_2_synthesis):
        summary = earliest_decision_summary(floodset_3_2_synthesis)
        assert summary.earliest_any == 2
        assert summary.earliest_general == 2

    def test_earliest_condition_renderings(self, floodset_3_2_synthesis):
        # At the critical time the condition (2) reduces to the seen-value
        # literal, and the rendering must present it that way.
        renderings = earliest_condition_renderings(floodset_3_2_synthesis)
        assert set(renderings) == {0, 1}
        for value, rendering in renderings.items():
            assert f"values_received[{value}]" in rendering, rendering


@pytest.mark.parametrize(
    "num_agents,max_faulty",
    [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)],
)
class TestConditionTwoAcrossInstances:
    def test_condition_two_confirmed(self, num_agents, max_faulty):
        model = build_model(Scenario(exchange="floodset", num_agents=num_agents, max_faulty=max_faulty))
        result = synthesize_sba(model)
        for value in range(2):
            hypothesis = floodset_condition_hypothesis(num_agents, max_faulty, value)
            report = result.conditions.check_hypothesis(value, hypothesis)
            assert report.confirmed, (num_agents, max_faulty, report.summary())

    def test_standard_protocol_optimality_matches_theory(self, num_agents, max_faulty):
        """The ``t + 1`` rule is optimal exactly when ``t < n - 1``."""
        model = build_model(Scenario(exchange="floodset", num_agents=num_agents, max_faulty=max_faulty))
        protocol = FloodSetStandardProtocol(num_agents, max_faulty)
        report = verify_sba_implementation(model, protocol)
        assert report.is_sound
        critical = floodset_critical_time(num_agents, max_faulty)
        if critical == max_faulty + 1:
            assert report.is_optimal, report.summary()
        else:
            assert not report.is_optimal, report.summary()
