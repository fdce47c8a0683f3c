"""The Eventual Byzantine Agreement specification.

EBA replaces Simultaneous-Agreement(N) by plain Agreement(N): nonfaulty
agents that decide must decide the same value, but not necessarily in the
same round (Section 8 of the paper).  Its Agreement(N), Validity(N) and
Termination formulas are therefore SBA's, without the simultaneity clause.
"""

from __future__ import annotations

from typing import Dict

from repro.logic.formula import Formula
from repro.spec.sba import (
    RunReport,
    sba_agreement_formula,
    sba_termination_formula,
    sba_validity_formula,
)
from repro.systems.model import BAModel
from repro.systems.runs import Run


def eba_spec_formulas(model: BAModel, horizon: int) -> Dict[str, Formula]:
    """The full set of EBA specification formulas, keyed by name."""
    return {
        "agreement": sba_agreement_formula(model),
        "validity": sba_validity_formula(model),
        "termination": sba_termination_formula(model, horizon),
    }


def check_eba_run(run: Run, model: BAModel, horizon: int) -> RunReport:
    """Run-level check of Unique-Decision, Agreement, Validity, Termination."""
    report = RunReport()
    correct = run.adversary.correct_agents(model.num_agents)

    for agent in model.agents():
        decide_count = sum(1 for joint in run.actions if joint[agent] is not None)
        if decide_count > 1:
            report.add("unique-decision", f"agent {agent} decided {decide_count} times")

    deciders = [agent for agent in correct if run.decided(agent)]
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

    for agent in model.agents():
        if run.decided(agent) and run.decision_value(agent) not in run.votes:
            report.add(
                "validity",
                f"agent {agent} decided {run.decision_value(agent)} "
                f"which is not an initial preference {run.votes}",
            )

    for agent in correct:
        if not run.decided(agent):
            report.add("termination", f"agent {agent} never decided")
        elif run.decision_time(agent) > horizon:
            report.add(
                "termination",
                f"agent {agent} decided only at time {run.decision_time(agent)}",
            )

    return report
