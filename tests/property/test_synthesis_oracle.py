"""The bitset engine, synthesis and KBP verification against the set oracle.

The synthesizer and the implementation verifiers evaluate their knowledge
conditions level by level with two specialised bitset helpers:
``_level_knowledge_conditions`` (``B^N_i CB_N ∃v``) and
``_decide_zero_conditions_at_level`` (``init_i = 0 ∨ K_i(some agent decided
0)``).  These tests compare both with evaluations of the same formulas by
the set-based :class:`~repro.core.reference.SetChecker`, which shares no
evaluation code with them:

* level by level on a grid of small SBA spaces plus the paper's EBA
  exchanges (E_min and E_basic) under crash and sending-omission failures,
  alongside seeded-random formulas, the formulas synthesis and verification
  pose, and the query helpers (``holds_*``, ``counterexamples``,
  ``satisfying_observations``) the rest of the stack consumes — the EBA and
  omission spaces lie outside ``test_bitset_equivalence.py``'s grid;
* end to end, by substituting the oracle for both helpers and requiring
  identical rule tables, condition positives, iteration counts and KBP
  mismatch lists.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Scenario, build_model
from repro.core import synthesis
from repro.core.bitset import bits_from_indices, from_level_sets
from repro.core.checker import ModelChecker
from repro.core.reference import SetChecker
from repro.core.synthesis import (
    _decide_zero_conditions_at_level,
    _level_knowledge_conditions,
    synthesize_eba,
    synthesize_sba,
)
from repro.kbp.implementation import verify_eba_implementation, verify_sba_implementation
from repro.logic.atoms import (
    decided,
    decides_now,
    exists_value,
    init_is,
    nonfaulty,
    some_decided_value,
    time_is,
)
from repro.logic.builders import big_or, common_belief_exists, neg
from repro.logic.formula import (
    Always,
    And,
    Bottom,
    CommonBelief,
    EvAlways,
    EvEventually,
    EvNext,
    EveryoneBelieves,
    Eventually,
    Formula,
    Iff,
    Implies,
    Knows,
    KnowsNonfaulty,
    Next,
    Not,
    Nu,
    Or,
    PositivityError,
    Top,
    Var,
    check_positive,
)
from repro.protocols.eba import EBasicProtocol, EMinProtocol
from repro.protocols.sba import FloodSetStandardProtocol
from repro.systems.space import build_space

SBA_SYNTH_GRID = [
    ("floodset", 2, 1, "crash"),
    ("floodset", 2, 2, "sending"),
    ("count", 3, 1, "crash"),
]

EBA_SYNTH_GRID = [
    ("emin", 2, 1, "sending"),
    ("emin", 3, 1, "crash"),
    ("ebasic", 2, 1, "sending"),
]

#: (kind, exchange, n, t, failures, with_protocol)
SPACE_GRID = [
    ("sba", "floodset", 2, 1, "crash", True),
    ("sba", "floodset", 3, 1, "crash", True),
    ("sba", "floodset", 2, 2, "sending", False),
    ("sba", "count", 3, 1, "crash", False),
    ("eba", "emin", 2, 1, "sending", True),
    ("eba", "emin", 3, 1, "sending", True),
    ("eba", "ebasic", 2, 1, "sending", True),
    ("eba", "ebasic", 2, 2, "crash", True),
]


def _model(exchange, n, t, failures="crash"):
    return build_model(
        Scenario(exchange=exchange, num_agents=n, max_faulty=t, failures=failures)
    )


def oracle_level_knowledge_conditions(checker, level):
    """``B^N_i CB_N ∃v`` per (agent, value) at ``level``, by ``SetChecker``."""
    model = checker.space.model
    return {
        (agent, value): bits_from_indices(
            checker.check(common_belief_exists(agent, value))[level]
        )
        for agent in model.agents()
        for value in model.values()
    }


def oracle_decide_zero_conditions(checker, level):
    """``init_i = 0 ∨ K_i(some agent decided 0)`` per agent, by ``SetChecker``."""
    return {
        agent: bits_from_indices(
            checker.check(Or((init_is(agent, 0), Knows(agent, some_decided_value(0)))))[
                level
            ]
        )
        for agent in checker.space.model.agents()
    }


def with_set_oracle(run):
    """``run()`` with both per-level evaluators answered by ``SetChecker``.

    A fresh checker per call: during synthesis the space grows between
    levels, so cached satisfaction sets would be stale.
    """
    calls = []

    def level_knowledge_conditions(space, level):
        calls.append(level)
        return oracle_level_knowledge_conditions(SetChecker(space), level)

    def decide_zero_conditions(space, level):
        calls.append(level)
        return oracle_decide_zero_conditions(SetChecker(space), level)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_level_knowledge_conditions", level_knowledge_conditions)
        patch.setattr(synthesis, "_decide_zero_conditions_at_level", decide_zero_conditions)
        result = run()
    assert calls, "the set oracle was never consulted"
    return result


# ---------------------------------------------------------------------------
# Level by level, on fixed spaces
# ---------------------------------------------------------------------------


def _random_atom(rng: random.Random, num_agents: int) -> Formula:
    agent = rng.randrange(num_agents)
    value = rng.randrange(2)
    choices = [
        lambda: init_is(agent, value),
        lambda: exists_value(value),
        lambda: decided(agent),
        lambda: some_decided_value(value),
        lambda: decides_now(agent, value),
        lambda: nonfaulty(agent),
        lambda: time_is(rng.randrange(4)),
        lambda: Top(),
        lambda: Bottom(),
    ]
    return rng.choice(choices)()


def _random_formula(rng: random.Random, num_agents: int, depth: int) -> Formula:
    """A random closed formula covering every operator of the logic."""
    if depth <= 0:
        return _random_atom(rng, num_agents)

    def sub() -> Formula:
        return _random_formula(rng, num_agents, depth - 1)

    agent = rng.randrange(num_agents)
    variable = f"X{depth}"
    constructors = [
        lambda: Not(sub()),
        lambda: And((sub(), sub())),
        lambda: Or((sub(), sub())),
        lambda: Implies(sub(), sub()),
        lambda: Iff(sub(), sub()),
        lambda: Knows(agent, sub()),
        lambda: KnowsNonfaulty(agent, sub()),
        lambda: EveryoneBelieves(sub()),
        lambda: CommonBelief(sub()),
        lambda: Nu(variable, EveryoneBelieves(And((sub(), Var(variable))))),
        lambda: Next(sub()),
        lambda: EvNext(sub()),
        lambda: Always(sub()),
        lambda: EvAlways(sub()),
        lambda: Eventually(sub()),
        lambda: EvEventually(sub()),
    ]
    return rng.choice(constructors)()


@pytest.fixture(
    scope="module",
    params=SPACE_GRID,
    ids=lambda p: f"{p[1]}-n{p[2]}t{p[3]}-{p[4]}",
)
def space(request):
    kind, exchange, num_agents, max_faulty, failures, with_protocol = request.param
    model = _model(exchange, num_agents, max_faulty, failures)
    rule = None
    if with_protocol:
        if kind == "sba":
            rule = FloodSetStandardProtocol(num_agents, max_faulty)
        else:
            protocol_type = EMinProtocol if exchange == "emin" else EBasicProtocol
            rule = protocol_type(num_agents, max_faulty)
    return build_space(model, rule)


def test_random_formulas_agree(space):
    """The bitset engine and the set oracle agree on seeded-random formulas."""
    num_agents = space.model.num_agents
    rng = random.Random(f"oracle-{num_agents}-{space.horizon}-{space.num_states()}")
    bitset = ModelChecker(space)
    oracle = SetChecker(space)
    checked = 0
    for _ in range(25):
        formula = _random_formula(rng, num_agents, depth=rng.randrange(1, 4))
        try:
            check_positive(formula)
        except PositivityError:
            continue
        expected = oracle.check(formula)
        assert bitset.check(formula) == expected, str(formula)
        assert bitset.check_bits(formula) == from_level_sets(expected), str(formula)
        checked += 1
    assert checked >= 15


def test_paper_formulas_agree(space):
    """The formulas synthesis and verification actually pose agree exactly."""
    model = space.model
    bitset = ModelChecker(space)
    oracle = SetChecker(space)
    someone_decides_zero = big_or(decides_now(agent, 0) for agent in model.agents())
    formulas = [
        common_belief_exists(agent, value)
        for agent in model.agents()
        for value in model.values()
    ]
    formulas += [
        Knows(agent, neg(EvEventually(someone_decides_zero)))
        for agent in model.agents()
    ]
    formulas.append(CommonBelief(exists_value(0)))
    formulas.append(Always(Implies(decided(0), Always(decided(0)))))
    for formula in formulas:
        assert bitset.check(formula) == oracle.check(formula), str(formula)
        assert bitset.holds_initially(formula) == oracle.holds_initially(formula)
        assert bitset.holds_everywhere(formula) == oracle.holds_everywhere(formula)


def test_query_helpers_agree(space):
    """holds_at, counterexamples and satisfying_observations match the oracle."""
    bitset = ModelChecker(space)
    oracle = SetChecker(space)
    formulas = [
        Eventually(Or((decided(0), Not(nonfaulty(0))))),
        Knows(0, exists_value(1)),
        KnowsNonfaulty(1, CommonBelief(exists_value(0))),
    ]
    for formula in formulas:
        satisfied = oracle.check(formula)
        failures = [
            (time, index)
            for time, level in enumerate(space.levels)
            for index in range(len(level))
            if index not in satisfied[time]
        ]
        assert bitset.counterexamples(formula) == failures
        assert bitset.counterexamples(formula, limit=3) == failures[:3]
        for point in [(0, 0), (space.horizon, 0)]:
            assert bitset.holds_at(formula, point) == oracle.holds_at(formula, point)
        for time in range(len(space.levels)):
            for agent in space.model.agents():
                expected = {
                    observation
                    for observation, members in space.observation_groups(
                        time, agent
                    ).items()
                    if satisfied[time].issuperset(members)
                }
                assert bitset.satisfying_observations(formula, time, agent) == expected


def test_level_conditions_match_set_oracle(space):
    """Both per-level synthesis evaluators match the oracle bitmask for bitmask."""
    oracle = SetChecker(space)
    for level in range(len(space.levels)):
        assert _level_knowledge_conditions(
            space, level
        ) == oracle_level_knowledge_conditions(oracle, level), level
        assert _decide_zero_conditions_at_level(
            space, level
        ) == oracle_decide_zero_conditions(oracle, level), level


# ---------------------------------------------------------------------------
# End to end: synthesis and KBP verification with the oracle substituted
# ---------------------------------------------------------------------------


def _positives(conditions):
    return {key: predicate.positive for key, predicate in conditions.conditions.items()}


@pytest.mark.parametrize("exchange,n,t,failures", SBA_SYNTH_GRID)
def test_sba_synthesis_matches_set_oracle(exchange, n, t, failures):
    model = _model(exchange, n, t, failures)
    bitset = synthesize_sba(model)
    oracle = with_set_oracle(lambda: synthesize_sba(model))
    assert oracle.rule.table == bitset.rule.table
    assert oracle.space.num_states() == bitset.space.num_states()
    assert _positives(oracle.conditions) == _positives(bitset.conditions)


@pytest.mark.parametrize("exchange,n,t,failures", EBA_SYNTH_GRID)
def test_eba_synthesis_matches_set_oracle(exchange, n, t, failures):
    model = _model(exchange, n, t, failures)
    bitset = synthesize_eba(model)
    oracle = with_set_oracle(lambda: synthesize_eba(model))
    assert oracle.rule.table == bitset.rule.table
    assert (oracle.iterations, oracle.converged) == (bitset.iterations, bitset.converged)
    assert bitset.converged
    assert _positives(oracle.conditions) == _positives(bitset.conditions)


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2)])
def test_sba_verification_matches_set_oracle(n, t):
    model = _model("floodset", n, t)
    protocol = FloodSetStandardProtocol(n, t)
    space = build_space(model, protocol)
    bitset = verify_sba_implementation(model, protocol, space=space)
    oracle = with_set_oracle(
        lambda: verify_sba_implementation(model, protocol, space=space)
    )
    assert oracle.mismatches == bitset.mismatches
    assert oracle.points_checked == bitset.points_checked


def test_eba_verification_matches_set_oracle():
    model = _model("emin", 2, 1, "sending")
    protocol = EMinProtocol(2, 1)
    space = build_space(model, protocol)
    bitset = verify_eba_implementation(model, protocol, space=space)
    oracle = with_set_oracle(
        lambda: verify_eba_implementation(model, protocol, space=space)
    )
    assert bitset.mismatches
    assert oracle.mismatches == bitset.mismatches
    assert oracle.points_checked == bitset.points_checked
