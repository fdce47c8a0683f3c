"""The Simultaneous Byzantine Agreement specification.

Formulas follow the ``spec_obs`` statements in the paper's appendix script:
agreement among non-failed agents, uniform agreement, validity, simultaneity
and termination.  (The knowledge condition ``B^N_i CB_N ∃v`` of the
knowledge-based program is :func:`repro.logic.builders.common_belief_exists`.)
Run-level checks of the same properties are provided for the
explicit-run machinery (property-based tests and optimality comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.logic.atoms import (
    decided,
    decision_is,
    exists_value,
    nonfaulty,
)
from repro.logic.builders import AX_power, big_and, big_or, implies
from repro.logic.formula import Always, Formula, Iff
from repro.systems.model import BAModel
from repro.systems.runs import Run


def _same_decision(agent_a: int, agent_b: int, num_values: int) -> Formula:
    return big_or(
        big_and([decision_is(agent_a, value), decision_is(agent_b, value)])
        for value in range(num_values)
    )


def sba_agreement_formula(model: BAModel) -> Formula:
    """``AG``: non-failed agents that have decided agree on the value."""
    clauses = []
    for agent_a in model.agents():
        for agent_b in model.agents():
            if agent_a >= agent_b:
                continue
            premise = big_and(
                [
                    nonfaulty(agent_a),
                    decided(agent_a),
                    nonfaulty(agent_b),
                    decided(agent_b),
                ]
            )
            clauses.append(
                implies(premise, _same_decision(agent_a, agent_b, model.num_values))
            )
    return Always(big_and(clauses))


def sba_uniform_agreement_formula(model: BAModel) -> Formula:
    """``AG``: *all* agents that have decided agree (uniform agreement)."""
    clauses = []
    for agent_a in model.agents():
        for agent_b in model.agents():
            if agent_a >= agent_b:
                continue
            premise = big_and([decided(agent_a), decided(agent_b)])
            clauses.append(
                implies(premise, _same_decision(agent_a, agent_b, model.num_values))
            )
    return Always(big_and(clauses))


def sba_validity_formula(model: BAModel) -> Formula:
    """``AG``: every decided value is the initial preference of some agent."""
    clauses = []
    for agent in model.agents():
        for value in model.values():
            clauses.append(implies(decision_is(agent, value), exists_value(value)))
    return Always(big_and(clauses))


def sba_simultaneity_formula(model: BAModel) -> Formula:
    """``AG``: at every point, either all nonfaulty agents have decided or none.

    Together with agreement this captures the Simultaneous-Agreement(N)
    requirement: decisions of nonfaulty agents happen in the same round.
    """
    clauses = []
    for agent_a in model.agents():
        for agent_b in model.agents():
            if agent_a >= agent_b:
                continue
            premise = big_and([nonfaulty(agent_a), nonfaulty(agent_b)])
            clauses.append(implies(premise, Iff(decided(agent_a), decided(agent_b))))
    return Always(big_and(clauses))


def sba_termination_formula(model: BAModel, horizon: int) -> Formula:
    """``AX^horizon``: every nonfaulty agent has decided by the horizon."""
    goal = big_and(
        implies(nonfaulty(agent), decided(agent)) for agent in model.agents()
    )
    return AX_power(horizon, goal)


def sba_spec_formulas(model: BAModel, horizon: int) -> Dict[str, Formula]:
    """The full set of SBA specification formulas, keyed by name."""
    return {
        "agreement": sba_agreement_formula(model),
        "uniform_agreement": sba_uniform_agreement_formula(model),
        "validity": sba_validity_formula(model),
        "simultaneity": sba_simultaneity_formula(model),
        "termination": sba_termination_formula(model, horizon),
    }


# ---------------------------------------------------------------------------
# Run-level checks
# ---------------------------------------------------------------------------


@dataclass
class SpecViolation:
    """A single violation of a specification property in a run."""

    property_name: str
    detail: str


@dataclass
class RunReport:
    """The outcome of checking a run against a specification."""

    violations: List[SpecViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def add(self, property_name: str, detail: str) -> None:
        """Record a violation."""
        self.violations.append(SpecViolation(property_name, detail))


def check_sba_run(run: Run, model: BAModel, horizon: int) -> RunReport:
    """Check Unique-Decision, Agreement, Simultaneity, Validity, Termination."""
    report = RunReport()
    correct = run.adversary.correct_agents(model.num_agents)

    # Unique decision is structural (the builders never let a decided agent
    # decide again); double-check by counting decide actions per agent.
    for agent in model.agents():
        decide_count = sum(
            1 for joint in run.actions if joint[agent] is not None
        )
        if decide_count > 1:
            report.add("unique-decision", f"agent {agent} decided {decide_count} times")

    deciders = [agent for agent in correct if run.decided(agent)]

    # Simultaneous agreement among correct agents.
    for agent_a in deciders:
        for agent_b in deciders:
            if agent_a >= agent_b:
                continue
            if run.decision_value(agent_a) != run.decision_value(agent_b):
                report.add(
                    "agreement",
                    f"agents {agent_a} and {agent_b} decided "
                    f"{run.decision_value(agent_a)} vs {run.decision_value(agent_b)}",
                )
            if run.decision_time(agent_a) != run.decision_time(agent_b):
                report.add(
                    "simultaneity",
                    f"agents {agent_a} and {agent_b} decided at times "
                    f"{run.decision_time(agent_a)} vs {run.decision_time(agent_b)}",
                )

    # Validity: decided values must be someone's initial preference.
    for agent in model.agents():
        if run.decided(agent) and run.decision_value(agent) not in run.votes:
            report.add(
                "validity",
                f"agent {agent} decided {run.decision_value(agent)} "
                f"which is not an initial preference {run.votes}",
            )

    # Termination: every correct agent decides within the horizon.
    for agent in correct:
        if not run.decided(agent):
            report.add("termination", f"agent {agent} never decided")
        elif run.decision_time(agent) > horizon:
            report.add(
                "termination",
                f"agent {agent} decided only at time {run.decision_time(agent)}",
            )

    return report
