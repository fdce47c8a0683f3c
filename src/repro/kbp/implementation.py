"""Verification that a concrete protocol implements a knowledge-based program.

A decision protocol ``P`` implements a knowledge-based program relative to an
exchange ``E`` and failure model ``F`` when, in the interpreted system
``I_{E,F,P}`` generated by running ``P`` itself, the protocol's concrete
decision guards are equivalent to the program's knowledge guards (Fagin et
al., chapter 7).  For the clock semantics this can be checked exhaustively:
build the levelled space under ``P`` and compare, at every reachable point and
for every agent that is still able to decide, the action ``P`` takes with the
action the knowledge guards prescribe.

Mismatches come in two flavours:

* ``late`` — the knowledge guard holds but the protocol does not decide (the
  protocol is correct but not optimal for this exchange; this is exactly the
  "optimization opportunity" the paper's experiments detect), and
* ``unsound`` — the protocol decides although the knowledge guard does not
  hold (the protocol decides on less than the required knowledge; for SBA
  this indicates the protocol is not an implementation of ``P`` at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

# The per-level evaluators are looked up on the synthesis module at call
# time, so a test that substitutes them there (the set-oracle comparison)
# reaches the verifiers too.
from repro.core import synthesis
from repro.engines import DEFAULT_ENGINE, validate_engine
from repro.systems.actions import NOOP, Action
from repro.systems.model import BAModel
from repro.systems.space import DecisionRule, LevelledSpace, build_space

#: A program's guards at one level: per agent, ``(action, bits)`` pairs in
#: priority order, where bit ``j`` of ``bits`` is set iff the guard of
#: ``action`` holds at state ``j`` of the level.
GuardTable = Dict[int, List[Tuple[Action, int]]]


@dataclass(frozen=True)
class ImplementationMismatch:
    """A point at which the protocol and the knowledge guard disagree."""

    kind: str
    agent: int
    time: int
    observation: Tuple
    protocol_action: Optional[int]
    knowledge_action: Optional[int]

    def describe(self) -> str:
        """A one-line human-readable description."""
        return (
            f"[{self.kind}] agent {self.agent} at time {self.time}: protocol action "
            f"{self.protocol_action}, knowledge prescribes {self.knowledge_action} "
            f"(observation {self.observation})"
        )


@dataclass
class ImplementationReport:
    """Result of checking a protocol against a knowledge-based program."""

    program: str
    mismatches: List[ImplementationMismatch] = field(default_factory=list)
    points_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when the protocol is an implementation of the program."""
        return not self.mismatches

    @property
    def is_optimal(self) -> bool:
        """True when there are no ``late`` mismatches.

        A protocol with only ``late`` mismatches is correct but decides later
        than the knowledge allows — the optimization opportunity of the paper.
        """
        return not any(mismatch.kind == "late" for mismatch in self.mismatches)

    @property
    def is_sound(self) -> bool:
        """True when there are no ``unsound`` mismatches."""
        return not any(mismatch.kind == "unsound" for mismatch in self.mismatches)

    def late_mismatches(self) -> List[ImplementationMismatch]:
        """The mismatches where the protocol decides later than it could."""
        return [mismatch for mismatch in self.mismatches if mismatch.kind == "late"]

    def summary(self) -> str:
        """A short summary suitable for experiment logs."""
        if self.ok:
            return f"{self.program}: implementation confirmed ({self.points_checked} points)"
        late = sum(1 for m in self.mismatches if m.kind == "late")
        unsound = sum(1 for m in self.mismatches if m.kind == "unsound")
        return (
            f"{self.program}: {late} late and {unsound} unsound decision points "
            f"out of {self.points_checked} checked"
        )


def _check_points(
    model: BAModel,
    space: LevelledSpace,
    program: str,
    guards_at: Callable[[int], GuardTable],
) -> ImplementationReport:
    """Compare the protocol's actions in ``space`` with a program's guards.

    At every point and for every agent that can still decide, the program's
    action is that of the first guard in ``guards_at(level)`` that holds
    (``NOOP`` if none does).  A disagreement is ``late`` when the protocol
    does nothing and ``unsound`` otherwise; each is recorded once per
    (kind, agent, time, observation).
    """
    report = ImplementationReport(program=program)
    seen: Set[Tuple] = set()
    for level, states in enumerate(space.levels):
        guards = guards_at(level)
        for index, state in enumerate(states):
            joint_action = space.actions[level][index]
            for agent in model.agents():
                if state.locals[agent].decided or not model.can_act(state, agent):
                    continue
                report.points_checked += 1
                for knowledge_action, bits in guards[agent]:
                    if (bits >> index) & 1:
                        break
                else:
                    knowledge_action = NOOP
                protocol_action = joint_action[agent]
                if protocol_action == knowledge_action:
                    continue
                kind = "late" if protocol_action is NOOP else "unsound"
                key = (kind, agent, level, model.observation(state, agent))
                if key in seen:
                    continue
                seen.add(key)
                report.mismatches.append(
                    ImplementationMismatch(*key, protocol_action, knowledge_action)
                )
    return report


def verify_sba_implementation(
    model: BAModel,
    rule: DecisionRule,
    horizon: Optional[int] = None,
    max_states: Optional[int] = None,
    space: Optional[LevelledSpace] = None,
    engine: str = DEFAULT_ENGINE,
    checker=None,
) -> ImplementationReport:
    """Check a protocol against the SBA knowledge-based program ``P``.

    The check builds (or reuses) the space generated by the protocol and, at
    every point and for every agent that can still decide, compares the
    protocol's action with the least value ``v`` for which ``B^N_i CB_N ∃v``
    holds at the point.  ``engine`` is validated (see :mod:`repro.engines`).
    ``checker`` is accepted for callers that hold the spec checker over the
    same ``space``; the conditions are computed from the masks cached on the
    space, so it is not consulted.
    """
    validate_engine(engine)
    if space is None:
        space = build_space(model, rule, horizon=horizon, max_states=max_states)

    def guards_at(level: int) -> GuardTable:
        conditions = synthesis._level_knowledge_conditions(space, level)
        return {
            agent: [(value, conditions[(agent, value)]) for value in model.values()]
            for agent in model.agents()
        }

    return _check_points(model, space, "P (SBA)", guards_at)


def verify_eba_implementation(
    model: BAModel,
    rule: DecisionRule,
    horizon: Optional[int] = None,
    max_states: Optional[int] = None,
    space: Optional[LevelledSpace] = None,
    engine: str = DEFAULT_ENGINE,
) -> ImplementationReport:
    """Check a protocol against the EBA knowledge-based program ``P0``.

    The decide-0 guard is ``init_i = 0`` or knowledge that some agent has
    decided 0; the decide-1 guard is knowledge that no agent decides 0 now or
    in the future, evaluated on the space generated by the protocol itself.
    ``engine`` is validated (see :mod:`repro.engines`).
    """
    validate_engine(engine)
    if space is None:
        space = build_space(model, rule, horizon=horizon, max_states=max_states)
    one_conditions = synthesis._decide_one_conditions(space)

    def guards_at(level: int) -> GuardTable:
        zero_conditions = synthesis._decide_zero_conditions_at_level(space, level)
        return {
            agent: [(0, zero_conditions[agent]), (1, one_conditions[agent][level])]
            for agent in model.agents()
        }

    return _check_points(model, space, "P0 (EBA)", guards_at)
