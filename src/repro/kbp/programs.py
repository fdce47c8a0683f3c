"""Declarative descriptions of the paper's knowledge-based programs.

A knowledge-based program is a prioritised list of guarded commands whose
guards are formulas of the logic of knowledge about the *running agent*
(written here as functions from the agent identifier to a formula).  The
programs are not directly executable — they are specifications whose
implementations replace the guards by concrete predicates of the local state
(Fagin et al., chapter 7); see :mod:`repro.core.synthesis` for the
construction and :mod:`repro.kbp.implementation` for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.logic.atoms import decides_now, init_is, some_decided_value
from repro.logic.builders import big_or, common_belief_exists, neg
from repro.logic.formula import EvEventually, Formula, Knows
from repro.systems.actions import Action


@dataclass(frozen=True)
class GuardedCommand:
    """One ``if <knowledge guard> then <action>`` clause of a program."""

    label: str
    guard: Callable[[int], Formula]
    action: Callable[[int], Optional[Action]]
    description: str


@dataclass(frozen=True)
class KnowledgeBasedProgram:
    """A prioritised list of guarded commands (first applicable clause fires)."""

    name: str
    commands: Tuple[GuardedCommand, ...]
    description: str


def sba_program_p(num_values: int) -> KnowledgeBasedProgram:
    """The SBA program ``P`` (Section 5, equation (1)).

    ``do noop until ∃v . B^N_i CB_N ∃v; decide the least such v``.  Each value
    gets its own guarded command, in increasing order of the value, which
    encodes the least-value tie-break.
    """
    commands = []
    for value in range(num_values):
        commands.append(
            GuardedCommand(
                label=f"decide-{value}",
                guard=lambda agent, value=value: common_belief_exists(agent, value),
                action=lambda agent, value=value: value,
                description=(
                    f"decide {value} when B^N_i CB_N (some agent has initial value {value})"
                ),
            )
        )
    return KnowledgeBasedProgram(
        name="P (SBA)",
        commands=tuple(commands),
        description=(
            "Do nothing until there is common belief among the nonfaulty agents "
            "that some initial value exists; then decide the least such value."
        ),
    )


def eba_program_p0(num_agents: int) -> KnowledgeBasedProgram:
    """The EBA program ``P0`` (Section 8).

    Decide 0 when ``init_i = 0`` or the agent knows some agent has decided 0;
    decide 1 when the agent knows no agent decides 0 now or in the future.
    """

    def decide_zero_guard(agent: int) -> Formula:
        return big_or([init_is(agent, 0), Knows(agent, some_decided_value(0))])

    def decide_one_guard(agent: int) -> Formula:
        someone_decides_zero = big_or(
            decides_now(other, 0) for other in range(num_agents)
        )
        return Knows(agent, neg(EvEventually(someone_decides_zero)))

    commands = (
        GuardedCommand(
            label="decide-0",
            guard=decide_zero_guard,
            action=lambda agent: 0,
            description="decide 0 when init is 0 or some agent is known to have decided 0",
        ),
        GuardedCommand(
            label="decide-1",
            guard=decide_one_guard,
            action=lambda agent: 1,
            description="decide 1 when the agent knows no agent decides 0 now or later",
        ),
    )
    return KnowledgeBasedProgram(
        name="P0 (EBA)",
        commands=commands,
        description=(
            "Repeat until decided: decide 0 on an initial 0 or on knowledge of a 0 "
            "decision; decide 1 on knowledge that no agent ever decides 0."
        ),
    )
