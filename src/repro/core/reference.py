"""Reference set-based satisfaction engine (executable specification).

This module preserves the original ``Set[int]``-per-level evaluator that
:class:`repro.core.checker.ModelChecker` replaced with packed bitsets.  It is
kept deliberately: the set-based code is the most literal transcription of
the operator semantics from Section 2 of the paper, so it serves as

* the **oracle** for the property tests in
  ``tests/property/test_bitset_equivalence.py`` (bitset and set evaluation
  must agree on every operator over randomized spaces) and
  ``tests/property/test_synthesis_oracle.py`` (the same agreement and the
  per-level synthesis evaluators on EBA and omission spaces; synthesis and
  KBP verification give the same answers with those evaluators replaced by
  set evaluation), and
* the **baseline** for the performance benchmark
  ``benchmarks/test_perf_checker.py`` (which records the bitset engine's
  speedup into ``BENCH_checker.json``).

It is not used on any production path; use
:class:`repro.core.checker.ModelChecker` instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.logic.formula import (
    Always,
    And,
    Atom,
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
    Top,
    Var,
    check_positive,
)
from repro.systems.space import LevelledSpace, Point

#: A satisfaction set: one set of state indices per built time level.
SatSet = List[Set[int]]


class SetChecker:
    """The legacy set-based model checker, retained as oracle and baseline."""

    def __init__(self, space: LevelledSpace) -> None:
        self.space = space
        self._cache: Dict[Formula, SatSet] = {}

    # ----------------------------------------------------------------- queries

    def check(self, formula: Formula) -> SatSet:
        """The satisfaction set of a closed formula over all built levels."""
        check_positive(formula)
        return self._eval(formula, {})

    def holds_at(self, formula: Formula, point: Point) -> bool:
        """Whether the formula holds at a specific point."""
        time, index = point
        return index in self.check(formula)[time]

    def holds_initially(self, formula: Formula) -> bool:
        """Whether the formula holds at every initial (time 0) point."""
        satisfied = self.check(formula)[0]
        return len(satisfied) == len(self.space.levels[0])

    def holds_everywhere(self, formula: Formula) -> bool:
        """Whether the formula holds at every reachable point."""
        sat = self.check(formula)
        return all(
            len(sat[time]) == len(level) for time, level in enumerate(self.space.levels)
        )

    # -------------------------------------------------------------- evaluation

    def _levels(self) -> int:
        return len(self.space.levels)

    def _full(self) -> SatSet:
        return [set(range(len(level))) for level in self.space.levels]

    def _empty(self) -> SatSet:
        return [set() for _ in self.space.levels]

    def _eval(self, formula: Formula, env: Dict[str, SatSet]) -> SatSet:
        cacheable = not env
        if cacheable and formula in self._cache:
            return self._cache[formula]
        result = self._eval_uncached(formula, env)
        if cacheable:
            self._cache[formula] = result
        return result

    def _eval_uncached(self, formula: Formula, env: Dict[str, SatSet]) -> SatSet:
        if isinstance(formula, Top):
            return self._full()
        if isinstance(formula, Bottom):
            return self._empty()
        if isinstance(formula, Atom):
            return self._eval_atom(formula)
        if isinstance(formula, Var):
            if formula.name not in env:
                raise ValueError(f"unbound fixpoint variable {formula.name!r}")
            return [set(level) for level in env[formula.name]]
        if isinstance(formula, Not):
            operand = self._eval(formula.operand, env)
            return [
                set(range(len(level))) - operand[time]
                for time, level in enumerate(self.space.levels)
            ]
        if isinstance(formula, And):
            result = self._full()
            for operand in formula.operands:
                operand_sat = self._eval(operand, env)
                result = [result[time] & operand_sat[time] for time in range(self._levels())]
            return result
        if isinstance(formula, Or):
            result = self._empty()
            for operand in formula.operands:
                operand_sat = self._eval(operand, env)
                result = [result[time] | operand_sat[time] for time in range(self._levels())]
            return result
        if isinstance(formula, Implies):
            antecedent = self._eval(formula.antecedent, env)
            consequent = self._eval(formula.consequent, env)
            return [
                (set(range(len(level))) - antecedent[time]) | consequent[time]
                for time, level in enumerate(self.space.levels)
            ]
        if isinstance(formula, Iff):
            left = self._eval(formula.left, env)
            right = self._eval(formula.right, env)
            result = []
            for time, level in enumerate(self.space.levels):
                everything = set(range(len(level)))
                agree = (left[time] & right[time]) | (
                    (everything - left[time]) & (everything - right[time])
                )
                result.append(agree)
            return result
        if isinstance(formula, Knows):
            return self._eval_knows(formula.agent, formula.operand, env, relative=False)
        if isinstance(formula, KnowsNonfaulty):
            return self._eval_knows(formula.agent, formula.operand, env, relative=True)
        if isinstance(formula, EveryoneBelieves):
            return self._eval_everyone_believes(formula.operand, env)
        if isinstance(formula, CommonBelief):
            return self._eval_common_belief(formula.operand, env)
        if isinstance(formula, Nu):
            return self._eval_nu(formula, env)
        if isinstance(formula, Next):
            return self._eval_next(formula.operand, env, universal=True)
        if isinstance(formula, EvNext):
            return self._eval_next(formula.operand, env, universal=False)
        if isinstance(formula, Always):
            return self._eval_globally(formula.operand, env, universal=True)
        if isinstance(formula, EvAlways):
            return self._eval_globally(formula.operand, env, universal=False)
        if isinstance(formula, Eventually):
            return self._eval_eventually(formula.operand, env, universal=True)
        if isinstance(formula, EvEventually):
            return self._eval_eventually(formula.operand, env, universal=False)
        raise TypeError(f"unsupported formula node {type(formula).__name__}")

    # -- atomic propositions --------------------------------------------------

    def _eval_atom(self, atom: Atom) -> SatSet:
        result: SatSet = []
        for time, level in enumerate(self.space.levels):
            satisfied = {
                index
                for index in range(len(level))
                if self.space.eval_atom((time, index), atom.key)
            }
            result.append(satisfied)
        return result

    # -- epistemic operators --------------------------------------------------

    def _eval_knows(
        self, agent: int, operand: Formula, env: Dict[str, SatSet], relative: bool
    ) -> SatSet:
        operand_sat = self._eval(operand, env)
        result: SatSet = []
        for time in range(self._levels()):
            groups = self.space.observation_groups(time, agent)
            satisfied: Set[int] = set()
            for members in groups.values():
                if relative:
                    holds = all(
                        (not self.space.nonfaulty((time, index), agent))
                        or index in operand_sat[time]
                        for index in members
                    )
                else:
                    holds = all(index in operand_sat[time] for index in members)
                if holds:
                    satisfied.update(members)
            result.append(satisfied)
        return result

    def _eval_everyone_believes(
        self, operand: Formula, env: Dict[str, SatSet]
    ) -> SatSet:
        num_agents = self.space.model.num_agents
        beliefs = [
            self._eval_knows(agent, operand, env, relative=True)
            for agent in range(num_agents)
        ]
        result: SatSet = []
        for time, level in enumerate(self.space.levels):
            satisfied: Set[int] = set()
            for index in range(len(level)):
                point = (time, index)
                believers_ok = all(
                    index in beliefs[agent][time]
                    for agent in range(num_agents)
                    if self.space.nonfaulty(point, agent)
                )
                if believers_ok:
                    satisfied.add(index)
            result.append(satisfied)
        return result

    def _eval_common_belief(self, operand: Formula, env: Dict[str, SatSet]) -> SatSet:
        operand_sat = self._eval(operand, env)
        current = self._full()
        while True:
            # EB_N (phi /\ X), with phi and X already evaluated to sets.
            conjunction = [operand_sat[time] & current[time] for time in range(self._levels())]
            next_set = self._everyone_believes_sets(conjunction)
            if next_set == current:
                return current
            current = next_set

    def _everyone_believes_sets(self, target: SatSet) -> SatSet:
        """``EB_N`` applied to an already-computed satisfaction set."""
        num_agents = self.space.model.num_agents
        result: SatSet = []
        for time, level in enumerate(self.space.levels):
            groups = [
                self.space.observation_groups(time, agent) for agent in range(num_agents)
            ]
            believes: List[Set[int]] = []
            for agent in range(num_agents):
                satisfied: Set[int] = set()
                for members in groups[agent].values():
                    holds = all(
                        (not self.space.nonfaulty((time, index), agent))
                        or index in target[time]
                        for index in members
                    )
                    if holds:
                        satisfied.update(members)
                believes.append(satisfied)
            level_result: Set[int] = set()
            for index in range(len(level)):
                point = (time, index)
                if all(
                    index in believes[agent]
                    for agent in range(num_agents)
                    if self.space.nonfaulty(point, agent)
                ):
                    level_result.add(index)
            result.append(level_result)
        return result

    def _eval_nu(self, formula: Nu, env: Dict[str, SatSet]) -> SatSet:
        current = self._full()
        while True:
            inner = dict(env)
            inner[formula.variable] = current
            next_set = self._eval(formula.operand, inner)
            if next_set == current:
                return current
            current = next_set

    # -- temporal operators ---------------------------------------------------

    def _successor_sets(self, time: int) -> Sequence[List[int]]:
        """Successor index lists at ``time``; final level is absorbing."""
        if time < len(self.space.successors):
            return self.space.successors[time]
        return [[index] for index in range(len(self.space.levels[time]))]

    def _eval_next(
        self, operand: Formula, env: Dict[str, SatSet], universal: bool
    ) -> SatSet:
        operand_sat = self._eval(operand, env)
        result: SatSet = []
        last = self._levels() - 1
        for time, level in enumerate(self.space.levels):
            satisfied: Set[int] = set()
            successors = self._successor_sets(time)
            target_time = time + 1 if time < last else time
            for index in range(len(level)):
                targets = successors[index]
                if universal:
                    holds = all(target in operand_sat[target_time] for target in targets)
                else:
                    holds = any(target in operand_sat[target_time] for target in targets)
                if holds:
                    satisfied.add(index)
            result.append(satisfied)
        return result

    def _eval_globally(
        self, operand: Formula, env: Dict[str, SatSet], universal: bool
    ) -> SatSet:
        operand_sat = self._eval(operand, env)
        last = self._levels() - 1
        result: SatSet = [set() for _ in range(self._levels())]
        result[last] = set(operand_sat[last])
        for time in range(last - 1, -1, -1):
            successors = self._successor_sets(time)
            satisfied: Set[int] = set()
            for index in range(len(self.space.levels[time])):
                if index not in operand_sat[time]:
                    continue
                targets = successors[index]
                if universal:
                    holds = all(target in result[time + 1] for target in targets)
                else:
                    holds = any(target in result[time + 1] for target in targets)
                if holds:
                    satisfied.add(index)
            result[time] = satisfied
        return result

    def _eval_eventually(
        self, operand: Formula, env: Dict[str, SatSet], universal: bool
    ) -> SatSet:
        operand_sat = self._eval(operand, env)
        last = self._levels() - 1
        result: SatSet = [set() for _ in range(self._levels())]
        result[last] = set(operand_sat[last])
        for time in range(last - 1, -1, -1):
            successors = self._successor_sets(time)
            satisfied: Set[int] = set()
            for index in range(len(self.space.levels[time])):
                if index in operand_sat[time]:
                    satisfied.add(index)
                    continue
                targets = successors[index]
                if universal:
                    holds = all(target in result[time + 1] for target in targets)
                else:
                    holds = any(target in result[time + 1] for target in targets)
                if holds:
                    satisfied.add(index)
            result[time] = satisfied
        return result
