"""Synthesis of knowledge-based program implementations (clock semantics).

Under the clock semantics, a knowledge-based program has a unique
implementation (Fagin et al., chapter 7; Huang & van der Meyden), and it can
be computed constructively: the knowledge conditions at time ``m`` depend only
on the set of points reachable at time ``m``, which is determined by the
actions taken at earlier times.  The synthesizer therefore builds the levelled
state space one level at a time, evaluating the knowledge conditions of the
program at each level to fix the decision actions, and records the resulting
conditions as predicates over observations.

Two programs from the paper are supported:

* :func:`synthesize_sba` — the SBA program ``P`` (Section 5): do nothing until
  ``B^N_i CB_N ∃v`` holds for some value ``v``; then decide the least such
  value.  The construction is exact and single-pass.
* :func:`synthesize_eba` — the EBA program ``P0`` (Section 8): decide 0 when
  ``init_i = 0`` or the agent knows some agent has decided 0; decide 1 when
  the agent knows that no agent decides 0 now or in the future.  The
  decide-1 condition refers to the future behaviour of the synthesized
  protocol itself, so the implementation is computed as a fixpoint over
  whole-space passes and then verified (see :class:`EBASynthesisResult`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bitset import blocks_within
from repro.core.checker import ModelChecker
from repro.core.predicates import ConditionTable, build_predicate
from repro.engines import DEFAULT_ENGINE, validate_engine
from repro.logic.atoms import decides_now
from repro.logic.builders import big_or, neg
from repro.logic.formula import EvEventually, Knows
from repro.systems.actions import Action, NOOP
from repro.systems.model import BAModel
from repro.systems.space import LevelledSpace

#: Label used in EBA condition tables for the decide-0 knowledge condition.
DECIDE_ZERO = "decide0"
#: Label used in EBA condition tables for the decide-1 knowledge condition.
DECIDE_ONE = "decide1"


@dataclass
class SynthesizedRule:
    """A decision protocol given by a table over (agent, time, observation).

    This is the concrete protocol produced by synthesis: the knowledge tests
    of the knowledge-based program have been replaced by predicates of the
    agent's observable state, exactly as MCK replaces template variables by
    ``define`` statements.
    """

    model: BAModel
    table: Dict[Tuple[int, int], Dict[Tuple, Action]] = field(default_factory=dict)

    def action_for(self, agent: int, time: int, observation: Tuple) -> Action:
        """The action prescribed for an observation (``NOOP`` if unknown)."""
        return self.table.get((agent, time), {}).get(observation, NOOP)

    def __call__(self, agent: int, local: Tuple, time: int) -> Action:
        observation = self.model.exchange.observation(agent, local)
        return self.action_for(agent, time, observation)


# ---------------------------------------------------------------------------
# SBA synthesis
# ---------------------------------------------------------------------------


@dataclass
class SBASynthesisResult:
    """Result of synthesizing the SBA knowledge-based program ``P``."""

    model: BAModel
    space: LevelledSpace
    conditions: ConditionTable
    rule: SynthesizedRule


def _level_knowledge_conditions(
    space: LevelledSpace, level: int
) -> Dict[Tuple[int, int], int]:
    """Satisfaction of ``B^N_i CB_N ∃v`` per (agent, value) at one level.

    This is a specialised evaluator that works on a single level only, which
    is all the clock semantics requires; it avoids re-evaluating lower levels
    on every synthesis step.  Satisfaction is returned and manipulated as a
    packed bitmask per (agent, value) — bit ``j`` stands for state ``j`` of
    the level — using the observation-partition block masks cached on the
    space, so the ``EB_N`` fixpoint iterates over machine-word operations.
    """
    model = space.model
    full = space.level_mask(level)

    nonfaulty_masks = [space.nonfaulty_mask(level, agent) for agent in model.agents()]
    block_masks = [
        list(space.observation_masks(level, agent).values()) for agent in model.agents()
    ]

    def everyone_believes(target: int) -> int:
        result = full
        for agent in model.agents():
            restrict = nonfaulty_masks[agent]
            believes = blocks_within(block_masks[agent], restrict, target)
            result &= believes | (full & ~restrict)
            if not result:
                break
        return result

    conditions: Dict[Tuple[int, int], int] = {}
    for value in model.values():
        exists_value_bits = space.atom_mask(level, ("exists", value))
        # Greatest fixpoint of X -> EB_N(exists_v /\ X), within the level.
        current = full
        while True:
            next_bits = everyone_believes(exists_value_bits & current)
            if next_bits == current:
                break
            current = next_bits
        common_belief = current
        # B^N_i CB_N exists_v, per agent.
        for agent in model.agents():
            conditions[(agent, value)] = blocks_within(
                block_masks[agent], nonfaulty_masks[agent], common_belief
            )
    return conditions


def synthesize_sba(
    model: BAModel,
    horizon: Optional[int] = None,
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> SBASynthesisResult:
    """Synthesize the unique clock-semantics implementation of program ``P``.

    ``engine`` is validated (see :mod:`repro.engines`); the knowledge
    conditions are evaluated on packed bitsets.
    """
    validate_engine(engine)
    space = LevelledSpace.initial(model, horizon=horizon, max_states=max_states)
    conditions = ConditionTable()
    rule = SynthesizedRule(model=model)

    for level in range(space.horizon + 1):
        level_conditions = _level_knowledge_conditions(space, level)
        states = space.levels[level]

        for agent in model.agents():
            groups = space.observation_groups(level, agent)
            reachable = set(groups)
            features_of = {
                observation: model.observation_features(states[members[0]], agent)
                for observation, members in groups.items()
            }
            decision_table: Dict[Tuple, Action] = {}
            for observation, members in groups.items():
                representative = members[0]
                chosen: Action = NOOP
                for value in model.values():
                    if (level_conditions[(agent, value)] >> representative) & 1:
                        chosen = value
                        break
                decision_table[observation] = chosen
            rule.table[(agent, level)] = decision_table

            for value in model.values():
                positive = {
                    observation
                    for observation, members in groups.items()
                    if (level_conditions[(agent, value)] >> members[0]) & 1
                }
                conditions.add(
                    build_predicate(agent, level, positive, reachable, features_of),
                    label=value,
                )

        space.advance(rule)

    return SBASynthesisResult(model=model, space=space, conditions=conditions, rule=rule)


# ---------------------------------------------------------------------------
# EBA synthesis
# ---------------------------------------------------------------------------


@dataclass
class EBASynthesisResult:
    """Result of synthesizing the EBA knowledge-based program ``P0``."""

    model: BAModel
    space: LevelledSpace
    conditions: ConditionTable
    rule: SynthesizedRule
    iterations: int
    converged: bool


def _decide_zero_conditions_at_level(
    space: LevelledSpace, level: int
) -> Dict[int, int]:
    """Satisfaction of ``init_i = 0 \\/ K_i(some agent has decided 0)`` per agent.

    Returned as a packed bitmask per agent (bit ``j`` = state ``j`` of the
    level), like :func:`_level_knowledge_conditions`.  The atom bitmasks come
    from the space's cache, so the two calls per EBA pass share the scans.
    """
    model = space.model
    some_decided_zero = space.atom_mask(level, ("some_decided", 0))
    conditions: Dict[int, int] = {}
    for agent in model.agents():
        knows = blocks_within(
            space.observation_masks(level, agent).values(), -1, some_decided_zero
        )
        conditions[agent] = knows | space.atom_mask(level, ("init", agent, 0))
    return conditions


def _decide_one_conditions(space: LevelledSpace) -> Dict[int, List[int]]:
    """Satisfaction of ``K_i ¬EF(some agent decides 0 now)`` per agent.

    The decide-1 guard of ``P0``.  It reads the future of the space, so,
    unlike the two per-level evaluators, it is evaluated on a completed
    space, all levels at once: entry ``[agent][level]`` is a packed bitmask
    (bit ``j`` = state ``j`` of the level).
    """
    model = space.model
    checker = ModelChecker(space)
    someone_decides_zero = big_or(decides_now(agent, 0) for agent in model.agents())
    future_zero = EvEventually(someone_decides_zero)
    return {
        agent: checker.check_bits(Knows(agent, neg(future_zero)))
        for agent in model.agents()
    }


def _eba_pass(
    model: BAModel,
    horizon: Optional[int],
    max_states: Optional[int],
    prior_rule: Optional[SynthesizedRule],
) -> Tuple[LevelledSpace, ConditionTable, SynthesizedRule]:
    """One whole-space pass of EBA synthesis.

    Decide-0 conditions are evaluated exactly, level by level.  Decide-1
    actions during the build are taken from ``prior_rule`` (none on the first
    pass); after the space is complete, the decide-1 knowledge condition
    ``K_i(no agent decides 0 now or in the future)`` is evaluated on it and a
    new rule table is assembled.
    """
    space = LevelledSpace.initial(model, horizon=horizon, max_states=max_states)
    conditions = ConditionTable()
    building_rule = SynthesizedRule(model=model)

    for level in range(space.horizon + 1):
        zero_conditions = _decide_zero_conditions_at_level(space, level)
        for agent in model.agents():
            groups = space.observation_groups(level, agent)
            decision_table: Dict[Tuple, Action] = {}
            for observation, members in groups.items():
                representative = members[0]
                if (zero_conditions[agent] >> representative) & 1:
                    decision_table[observation] = 0
                elif prior_rule is not None:
                    decision_table[observation] = prior_rule.action_for(
                        agent, level, observation
                    )
                else:
                    decision_table[observation] = NOOP
            building_rule.table[(agent, level)] = decision_table

        space.advance(building_rule)

    one_conditions = _decide_one_conditions(space)
    final_rule = SynthesizedRule(model=model)
    for level in range(space.horizon + 1):
        zero_conditions = _decide_zero_conditions_at_level(space, level)
        states = space.levels[level]
        for agent in model.agents():
            knows_safe = one_conditions[agent][level]
            groups = space.observation_groups(level, agent)
            reachable = set(groups)
            features_of = {
                observation: model.observation_features(states[members[0]], agent)
                for observation, members in groups.items()
            }
            decision_table: Dict[Tuple, Action] = {}
            zero_positive = set()
            one_positive = set()
            for observation, members in groups.items():
                representative = members[0]
                if (zero_conditions[agent] >> representative) & 1:
                    decision_table[observation] = 0
                    zero_positive.add(observation)
                elif (knows_safe >> representative) & 1:
                    decision_table[observation] = 1
                    one_positive.add(observation)
                else:
                    decision_table[observation] = NOOP
            final_rule.table[(agent, level)] = decision_table
            conditions.add(
                build_predicate(agent, level, zero_positive, reachable, features_of),
                label=DECIDE_ZERO,
            )
            conditions.add(
                build_predicate(agent, level, one_positive, reachable, features_of),
                label=DECIDE_ONE,
            )

    return space, conditions, final_rule


def synthesize_eba(
    model: BAModel,
    horizon: Optional[int] = None,
    max_states: Optional[int] = None,
    max_iterations: int = 6,
    engine: str = DEFAULT_ENGINE,
) -> EBASynthesisResult:
    """Synthesize an implementation of the EBA program ``P0``.

    The computation iterates whole-space passes until the derived rule table
    stops changing (the usual knowledge-based-program fixpoint); for the
    exchanges of the paper (``E_min`` and ``E_basic``) this converges within
    a few iterations.  ``engine`` is validated (see :mod:`repro.engines`).
    The caller can
    verify the result against the knowledge-based program with
    :func:`repro.kbp.implementation.verify_eba_implementation`.
    """
    validate_engine(engine)
    prior_rule: Optional[SynthesizedRule] = None
    space: Optional[LevelledSpace] = None
    conditions = ConditionTable()
    iterations = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        space, conditions, new_rule = _eba_pass(model, horizon, max_states, prior_rule)
        if prior_rule is not None and new_rule.table == prior_rule.table:
            converged = True
            prior_rule = new_rule
            break
        prior_rule = new_rule

    assert prior_rule is not None and space is not None
    return EBASynthesisResult(
        model=model,
        space=space,
        conditions=conditions,
        rule=prior_rule,
        iterations=iterations,
        converged=converged,
    )
