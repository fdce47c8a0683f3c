"""Unit tests for the SBA/EBA specifications and the optimality order."""

import pytest

from repro.core.checker import ModelChecker
from repro.api import Scenario, build_model
from repro.protocols import (
    EMinProtocol,
    FloodSetRevisedProtocol,
    FloodSetStandardProtocol,
    FunctionProtocol,
    NeverDecide,
)
from repro.spec import (
    check_eba_run,
    check_sba_run,
    compare_protocols,
    eba_spec_formulas,
    never_later,
    sba_spec_formulas,
    strictly_earlier_somewhere,
)
from repro.systems.runs import CrashAdversary, enumerate_crash_adversaries, simulate_run
from repro.systems.space import build_space


@pytest.fixture(scope="module")
def floodset_model():
    return build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=1))


class TestSBAFormulas:
    def test_spec_formula_names(self, floodset_model):
        formulas = sba_spec_formulas(floodset_model, horizon=3)
        assert set(formulas) == {
            "agreement",
            "uniform_agreement",
            "validity",
            "simultaneity",
            "termination",
        }

    def test_standard_protocol_satisfies_spec(self, floodset_model):
        space = build_space(floodset_model, FloodSetStandardProtocol(3, 1))
        checker = ModelChecker(space)
        for name, formula in sba_spec_formulas(floodset_model, space.horizon).items():
            assert checker.holds_initially(formula), name

    def test_never_decide_violates_termination_only(self, floodset_model):
        space = build_space(floodset_model, NeverDecide())
        checker = ModelChecker(space)
        formulas = sba_spec_formulas(floodset_model, space.horizon)
        assert checker.holds_initially(formulas["agreement"])
        assert checker.holds_initially(formulas["validity"])
        assert checker.holds_initially(formulas["simultaneity"])
        assert not checker.holds_initially(formulas["termination"])

    def test_premature_protocol_violates_agreement_or_simultaneity(self, floodset_model):
        # Deciding one's own value immediately cannot be an SBA protocol.
        rash = FunctionProtocol(lambda agent, local, time: local.init, name="rash")
        space = build_space(floodset_model, rash)
        checker = ModelChecker(space)
        formulas = sba_spec_formulas(floodset_model, space.horizon)
        assert not checker.holds_initially(formulas["agreement"])


class TestSBARunChecks:
    def test_good_run_has_no_violations(self, floodset_model):
        protocol = FloodSetStandardProtocol(3, 1)
        run = simulate_run(floodset_model, protocol, (0, 1, 0), CrashAdversary())
        report = check_sba_run(run, floodset_model, floodset_model.default_horizon())
        assert report.ok

    def test_never_decide_run_fails_termination(self, floodset_model):
        run = simulate_run(floodset_model, NeverDecide(), (0, 1, 0), CrashAdversary())
        report = check_sba_run(run, floodset_model, floodset_model.default_horizon())
        assert not report.ok
        assert {violation.property_name for violation in report.violations} == {
            "termination"
        }

    def test_rash_protocol_fails_agreement_on_mixed_votes(self, floodset_model):
        rash = FunctionProtocol(lambda agent, local, time: local.init, name="rash")
        run = simulate_run(floodset_model, rash, (0, 1, 1), CrashAdversary())
        report = check_sba_run(run, floodset_model, floodset_model.default_horizon())
        names = {violation.property_name for violation in report.violations}
        assert "agreement" in names

    def test_exhaustive_small_instance_is_clean(self, floodset_model):
        protocol = FloodSetStandardProtocol(3, 1)
        horizon = floodset_model.default_horizon()
        for adversary in enumerate_crash_adversaries(3, 1, horizon):
            for votes in [(0, 0, 1), (1, 0, 1)]:
                run = simulate_run(floodset_model, protocol, votes, adversary, horizon)
                assert check_sba_run(run, floodset_model, horizon).ok


class TestEBASpec:
    def test_emin_satisfies_eba_spec(self):
        model = build_model(Scenario(exchange="emin", num_agents=2, max_faulty=1, failures="sending"))
        space = build_space(model, EMinProtocol(2, 1))
        checker = ModelChecker(space)
        for name, formula in eba_spec_formulas(model, space.horizon).items():
            assert checker.holds_initially(formula), name

    def test_eba_run_check_reports_agreement_violation(self):
        model = build_model(Scenario(exchange="emin", num_agents=2, max_faulty=1, failures="sending"))
        stubborn = FunctionProtocol(
            lambda agent, local, time: local.init, name="stubborn"
        )
        from repro.systems.runs import OmissionAdversary

        run = simulate_run(
            model, stubborn, (0, 1), OmissionAdversary(), model.default_horizon()
        )
        report = check_eba_run(run, model, model.default_horizon())
        assert not report.ok


class TestOptimalityOrder:
    def test_revised_floodset_dominates_standard(self):
        model = build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=2))
        revised = FloodSetRevisedProtocol(3, 2)
        standard = FloodSetStandardProtocol(3, 2)
        adversaries = list(
            enumerate_crash_adversaries(3, 2, model.default_horizon(), limit=200)
        )
        report = compare_protocols(model, revised, standard, adversaries)
        assert never_later(report)
        assert strictly_earlier_somewhere(report)
        assert not report.violations()

    def test_standard_does_not_dominate_revised(self):
        model = build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=2))
        revised = FloodSetRevisedProtocol(3, 2)
        standard = FloodSetStandardProtocol(3, 2)
        adversaries = list(
            enumerate_crash_adversaries(3, 2, model.default_horizon(), limit=200)
        )
        report = compare_protocols(model, standard, revised, adversaries)
        assert not never_later(report)
        assert report.violations(limit=3)

    def test_comparison_against_itself_is_reflexive(self):
        model = build_model(Scenario(exchange="floodset", num_agents=2, max_faulty=1))
        protocol = FloodSetStandardProtocol(2, 1)
        adversaries = enumerate_crash_adversaries(2, 1, model.default_horizon())
        report = compare_protocols(model, protocol, protocol, adversaries)
        assert never_later(report)
        assert not strictly_earlier_somewhere(report)
