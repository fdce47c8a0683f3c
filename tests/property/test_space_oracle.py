"""The levelled-space build against explicit runs.

``build_space`` grows each level from the last through
``BAModel.successors``, which resolves the failure model's nondeterminism one
round at a time (``round_choices``, ``delivery_mode`` and the recipient
option sets).  :func:`repro.systems.runs.simulate_run` instead fixes a whole
failure pattern up front and computes the one run it allows; it shares only
the exchange's ``initial_local``, ``message`` and ``update`` with the model.
Under the clock semantics the space at time ``m`` is the set of time-``m``
states of all runs, so the two constructions must agree:

* exhaustively, over all votes and all patterns of
  ``enumerate_crash_adversaries``/``enumerate_omission_adversaries``: level
  ``m`` is the set of time-``m`` run states, the space's edges are the run
  steps, and the joint action recorded at a state is the run's;
* by sampling seeded adversaries where enumeration is too large: every run
  state is in its level, carries the run's joint action, and every run step
  is an edge;
* for synthesized spaces, under the synthesized rule.

The subjects are built through ``build_space`` and ``synthesize_*`` only;
nothing here calls the model's successor relation or grows a space by hand.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.api import Scenario, build_model
from repro.api.build import literature_protocol
from repro.core.synthesis import synthesize_eba, synthesize_sba
from repro.failures.crash import CrashFailures
from repro.systems.runs import (
    enumerate_crash_adversaries,
    enumerate_omission_adversaries,
    sample_adversary,
    simulate_run,
)
from repro.systems.space import build_space

SBA_EXCHANGES = ("floodset", "count", "diff", "dwork-moses")

EXHAUSTIVE = (
    [(exchange, n, t, "crash", False)
     for exchange in SBA_EXCHANGES
     for n, t in [(2, 1), (2, 2), (3, 1), (3, 2)]]
    + [("count", 3, 2, "crash", True), ("diff", 3, 2, "crash", True)]
    + [(exchange, n, 1, failures, False)
       for exchange in ("emin", "ebasic")
       for n in (2, 3)
       for failures in ("crash", "sending", "receiving")]
    + [(exchange, 2, 1, "general", False) for exchange in ("emin", "ebasic")]
)

SAMPLED = [
    ("emin", 3, 1, "general"),
    ("ebasic", 3, 1, "general"),
    ("floodset", 4, 2, "crash"),
    ("dwork-moses", 4, 2, "crash"),
    ("emin", 4, 1, "sending"),
    ("ebasic", 4, 2, "sending"),
]
SAMPLED_RUNS = 1_500


def _case_id(case) -> str:
    return "-".join("optimal" if part is True else str(part)
                    for part in case if part is not False)


def _scenario(exchange, n, t, failures, optimal=False) -> Scenario:
    return Scenario(exchange=exchange, num_agents=n, max_faulty=t,
                    failures=failures, optimal_protocol=optimal)


def _adversaries(model, horizon):
    if isinstance(model.failures, CrashFailures):
        return list(enumerate_crash_adversaries(
            model.num_agents, model.max_faulty, horizon))
    return list(enumerate_omission_adversaries(model.failures, horizon))


def _space_graph(space):
    """Per level: the state set, the edge set and the action at each state."""
    levels = [set(level) for level in space.levels]
    edges = [
        {(source, space.levels[time + 1][target])
         for source, targets in zip(space.levels[time], space.successors[time])
         for target in targets}
        for time in range(space.horizon)
    ]
    actions = [dict(zip(space.levels[time], space.actions[time]))
               for time in range(space.horizon + 1)]
    return levels, edges, actions


def _assert_space_is_the_runs(space, rule):
    """Compare a complete space with every run over all votes and patterns."""
    model, horizon = space.model, space.horizon
    for time, level in enumerate(space.levels):
        assert len(set(level)) == len(level), f"duplicate states at level {time}"
    levels, edges, actions = _space_graph(space)
    run_levels = [set() for _ in range(horizon + 1)]
    run_steps = [set() for _ in range(horizon)]
    adversaries = _adversaries(model, horizon)
    for votes in product(model.values(), repeat=model.num_agents):
        for adversary in adversaries:
            run = simulate_run(model, rule, votes, adversary, horizon)
            for time, state in enumerate(run.states):
                run_levels[time].add(state)
                assert actions[time].get(state) == run.actions[time], \
                    (time, votes, adversary)
            for time in range(horizon):
                run_steps[time].add((run.states[time], run.states[time + 1]))
    for time in range(horizon + 1):
        assert levels[time] == run_levels[time], f"level {time}"
    for time in range(horizon):
        assert edges[time] == run_steps[time], f"edges {time} -> {time + 1}"


@pytest.mark.parametrize("case", EXHAUSTIVE, ids=_case_id)
def test_space_is_exactly_the_runs(case):
    scenario = _scenario(*case)
    model = build_model(scenario)
    protocol = literature_protocol(scenario)
    _assert_space_is_the_runs(build_space(model, protocol), protocol)


@pytest.mark.parametrize("case", SAMPLED, ids=_case_id)
def test_sampled_runs_lie_in_the_space(case):
    scenario = _scenario(*case)
    model = build_model(scenario)
    protocol = literature_protocol(scenario)
    space = build_space(model, protocol)
    index = [{state: position for position, state in enumerate(level)}
             for level in space.levels]
    rng = random.Random(0)
    for _ in range(SAMPLED_RUNS):
        votes = tuple(rng.choice(model.values()) for _ in model.agents())
        adversary = sample_adversary(model.failures, space.horizon, rng)
        run = simulate_run(model, protocol, votes, adversary, space.horizon)
        positions = []
        for time, state in enumerate(run.states):
            assert state in index[time], (time, votes, adversary)
            position = index[time][state]
            assert space.actions[time][position] == run.actions[time], \
                (time, votes, adversary)
            positions.append(position)
        for time in range(space.horizon):
            assert positions[time + 1] in space.successors[time][positions[time]], \
                (time, votes, adversary)


@pytest.mark.parametrize("case", [("floodset", 3, 1), ("count", 3, 2)], ids=_case_id)
def test_synthesized_sba_space_is_the_runs_of_its_rule(case):
    result = synthesize_sba(build_model(_scenario(*case, "crash")))
    _assert_space_is_the_runs(result.space, result.rule)


@pytest.mark.parametrize(
    "case", [("emin", 3, 1, "sending"), ("ebasic", 3, 1, "crash")], ids=_case_id)
def test_synthesized_eba_space_is_the_runs_of_its_rule(case):
    result = synthesize_eba(build_model(_scenario(*case)))
    # Only a converged result's space was built under its final rule.
    assert result.converged
    _assert_space_is_the_runs(result.space, result.rule)
