"""Explicit-state epistemic model checking under the clock semantics.

The checker evaluates formulas of :mod:`repro.logic` over a
:class:`~repro.systems.space.LevelledSpace`.  Internally, satisfaction sets
are represented per time level as **packed bitsets** — one arbitrary-precision
Python ``int`` per level, bit ``j`` standing for state ``j``
(:data:`~repro.core.bitset.BitSat` = ``List[int]``).  This matches the
structure imposed by the clock semantics: the knowledge operators only relate
points at the same time, so every epistemic and propositional operator can be
evaluated level by level, while the bounded temporal operators are evaluated
by backward induction over the levels.

The packed representation makes the propositional connectives single integer
operations (``&``/``|``/``^``), and evaluates ``Knows(i, phi)`` with two mask
operations per observation block, using the observation-partition block masks
cached on the space (:meth:`LevelledSpace.observation_masks`).  Satisfaction
results are memoized per checker keyed on the structural formula hash (cached
on the immutable formula nodes, see :func:`repro.logic.formula.structural_hash`),
so the synthesis loop's repeated ``Knows``/``CommonBelief`` queries hit cache
across rounds.  The legacy ``List[Set[int]]`` representation remains available
through :meth:`ModelChecker.check` (a thin :func:`~repro.core.bitset.to_level_sets`
adapter over :meth:`ModelChecker.check_bits`) and, as an executable
specification, through :class:`repro.core.reference.SetChecker`.

Semantics of the operators (Section 2 of the paper):

* ``Knows(i, phi)`` holds at a point iff ``phi`` holds at every point of the
  same level with the same observation for ``i``.
* ``KnowsNonfaulty(i, phi)`` is ``K_i (i in N => phi)``.
* ``EveryoneBelieves(phi)`` holds at ``p`` iff ``KnowsNonfaulty(i, phi)``
  holds at ``p`` for every agent ``i`` in ``N(p)``.
* ``CommonBelief(phi)`` is the greatest fixpoint
  ``nu X . EveryoneBelieves(phi AND X)``.
* ``Nu(var, phi)`` is evaluated by iterating from the full set of points.
* The temporal operators are interpreted over the finite-horizon DAG with the
  final level treated as absorbing (each final-level point is its own unique
  successor), mirroring the bounded-time MCK scripts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.bitset import BitSat, blocks_within, to_level_sets
from repro.obs import profile as obs_profile
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

#: The legacy satisfaction-set form: one set of state indices per built level.
#: Produced by :meth:`ModelChecker.check`; the engine itself works on
#: :data:`~repro.core.bitset.BitSat`.
SatSet = List[Set[int]]


class ModelChecker:
    """Model checker for a (possibly partially built) levelled state space."""

    def __init__(self, space: LevelledSpace) -> None:
        self.space = space
        self._bit_cache: Dict[Formula, BitSat] = {}
        self._set_cache: Dict[Formula, SatSet] = {}

    # ----------------------------------------------------------------- queries

    def check_bits(self, formula: Formula) -> BitSat:
        """The packed satisfaction set of a closed formula (one int per level).

        This is the engine's native representation; bit ``j`` of entry
        ``time`` is set iff the formula holds at point ``(time, j)``.
        """
        check_positive(formula)
        return self._eval(formula, {})

    def check(self, formula: Formula) -> SatSet:
        """The satisfaction set of a closed formula over all built levels.

        Legacy adapter: unpacks :meth:`check_bits` into per-level
        ``Set[int]`` objects.  The unpacked form is memoized as well, so
        repeated calls return the same object.
        """
        cached = self._set_cache.get(formula)
        if cached is None:
            cached = to_level_sets(self.check_bits(formula))
            self._set_cache[formula] = cached
        return cached

    def holds_at(self, formula: Formula, point: Point) -> bool:
        """Whether the formula holds at a specific point."""
        time, index = point
        return bool((self.check_bits(formula)[time] >> index) & 1)

    def holds_initially(self, formula: Formula) -> bool:
        """Whether the formula holds at every initial (time 0) point.

        This is the satisfaction notion used for MCK ``spec`` statements.
        """
        return self.check_bits(formula)[0] == self.space.level_mask(0)

    def holds_everywhere(self, formula: Formula) -> bool:
        """Whether the formula holds at every reachable point."""
        bits = self.check_bits(formula)
        return all(
            bits[time] == self.space.level_mask(time)
            for time in range(len(self.space.levels))
        )

    def counterexamples(self, formula: Formula, limit: Optional[int] = None) -> List[Point]:
        """Points at which the formula fails (up to ``limit`` of them)."""
        bits = self.check_bits(formula)
        found: List[Point] = []
        for time in range(len(self.space.levels)):
            failing = self.space.level_mask(time) & ~bits[time]
            while failing:
                low = failing & -failing
                found.append((time, low.bit_length() - 1))
                if limit is not None and len(found) >= limit:
                    return found
                failing ^= low
        return found

    def satisfying_observations(
        self, formula: Formula, time: int, agent: int
    ) -> Set[Tuple]:
        """Observations of ``agent`` at ``time`` whose states all satisfy ``formula``.

        For formulas of the form ``K_agent``/``B^N_agent`` applied to anything,
        satisfaction is constant across an observation group, so this returns
        exactly the observations at which the agent's knowledge condition
        holds — the raw material of synthesis.
        """
        satisfied = self.check_bits(formula)[time]
        masks = self.space.observation_masks(time, agent)
        return {
            observation
            for observation, block in masks.items()
            if not block & ~satisfied
        }

    # -------------------------------------------------------------- evaluation

    def _levels(self) -> int:
        return len(self.space.levels)

    def _masks(self) -> List[int]:
        return [self.space.level_mask(time) for time in range(self._levels())]

    def _full(self) -> BitSat:
        return self._masks()

    def _empty(self) -> BitSat:
        return [0] * self._levels()

    def _eval(self, formula: Formula, env: Dict[str, BitSat]) -> BitSat:
        cacheable = not env
        if cacheable and formula in self._bit_cache:
            return self._bit_cache[formula]
        result = self._eval_uncached(formula, env)
        if cacheable:
            self._bit_cache[formula] = result
        return result

    def _eval_uncached(self, formula: Formula, env: Dict[str, BitSat]) -> BitSat:
        if isinstance(formula, Top):
            return self._full()
        if isinstance(formula, Bottom):
            return self._empty()
        if isinstance(formula, Atom):
            return self._eval_atom(formula)
        if isinstance(formula, Var):
            if formula.name not in env:
                raise ValueError(f"unbound fixpoint variable {formula.name!r}")
            return list(env[formula.name])
        if isinstance(formula, Not):
            operand = self._eval(formula.operand, env)
            return [
                self.space.level_mask(time) & ~operand[time]
                for time in range(self._levels())
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
                (self.space.level_mask(time) & ~antecedent[time]) | consequent[time]
                for time in range(self._levels())
            ]
        if isinstance(formula, Iff):
            left = self._eval(formula.left, env)
            right = self._eval(formula.right, env)
            return [
                self.space.level_mask(time) & ~(left[time] ^ right[time])
                for time in range(self._levels())
            ]
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

    def _eval_atom(self, atom: Atom) -> BitSat:
        # Packed atom interpretations are computed and cached on the space
        # (per level and key), so they are shared by every checker over the
        # same space — e.g. the spec checker and the implementation verifier
        # of one harness task.
        key = atom.key
        return [
            self.space.atom_mask(time, key) for time in range(len(self.space.levels))
        ]

    # -- epistemic operators --------------------------------------------------

    def _knows_bits_at(
        self, time: int, agent: int, target: int, relative: bool
    ) -> int:
        """States of one level where ``K_agent`` (or ``B^N_agent``) of a packed
        target set holds.

        A whole observation block satisfies the operator iff no block member
        (restricted to the nonfaulty states for the relative reading) falls
        outside the target — two mask operations per block.
        """
        restrict = self.space.nonfaulty_mask(time, agent) if relative else -1
        return blocks_within(
            self.space.observation_masks(time, agent).values(), restrict, target
        )

    def _eval_knows(
        self, agent: int, operand: Formula, env: Dict[str, BitSat], relative: bool
    ) -> BitSat:
        operand_sat = self._eval(operand, env)
        return [
            self._knows_bits_at(time, agent, operand_sat[time], relative)
            for time in range(self._levels())
        ]

    def _everyone_believes_bits_at(self, time: int, target: int) -> int:
        """``EB_N`` applied to one level's packed target set.

        A point satisfies ``EB_N`` iff every agent that is nonfaulty *at that
        point* believes the target, i.e. the intersection over agents of
        ``believes(agent) | ~nonfaulty(agent)``.
        """
        result = self.space.level_mask(time)
        for agent in range(self.space.model.num_agents):
            believes = self._knows_bits_at(time, agent, target, relative=True)
            result &= believes | (result & ~self.space.nonfaulty_mask(time, agent))
            if not result:
                break
        return result

    def _eval_everyone_believes(
        self, operand: Formula, env: Dict[str, BitSat]
    ) -> BitSat:
        operand_sat = self._eval(operand, env)
        return [
            self._everyone_believes_bits_at(time, operand_sat[time])
            for time in range(self._levels())
        ]

    def _eval_common_belief(self, operand: Formula, env: Dict[str, BitSat]) -> BitSat:
        operand_sat = self._eval(operand, env)
        # The fixpoint is per level: EB_N only relates points of the same
        # time, so each level's greatest fixpoint can be iterated on its own
        # bitmask until it stabilises.
        result: BitSat = []
        for time in range(self._levels()):
            current = self.space.level_mask(time)
            while True:
                next_bits = self._everyone_believes_bits_at(
                    time, operand_sat[time] & current
                )
                if next_bits == current:
                    break
                current = next_bits
            result.append(current)
        return result

    def _eval_nu(self, formula: Nu, env: Dict[str, BitSat]) -> BitSat:
        current = self._full()
        while True:
            inner = dict(env)
            inner[formula.variable] = current
            next_bits = self._eval(formula.operand, inner)
            if next_bits == current:
                return current
            current = next_bits

    # -- temporal operators ---------------------------------------------------

    @obs_profile.kernel("bitset.exist_step")
    def _exist_step(self, time: int, target: int) -> int:
        """States at ``time`` with some successor inside the packed target set.

        Unions the predecessor masks of the target's set bits — linear in the
        *population* of the target rather than in the size of the level.
        """
        predecessors = self.space.predecessor_masks(time)
        bits = 0
        while target:
            low = target & -target
            bits |= predecessors[low.bit_length() - 1]
            target ^= low
        return bits

    def _step_bits(self, time: int, target: int, universal: bool) -> int:
        """States at ``time`` whose successors (all/some) satisfy ``target``.

        The universal step is the complement of "some successor misses the
        target", so both readings reduce to :meth:`_exist_step`; the universal
        one iterates the complement of the target, which is typically sparse
        for the paper's ``AG``-shaped specifications.  Only called for levels
        with built successor edges (the final level is absorbing and handled
        by the callers directly).
        """
        if universal:
            bad = self.space.level_mask(time + 1) & ~target
            return self.space.level_mask(time) & ~self._exist_step(time, bad)
        return self._exist_step(time, target)

    def _eval_next(
        self, operand: Formula, env: Dict[str, BitSat], universal: bool
    ) -> BitSat:
        operand_sat = self._eval(operand, env)
        last = self._levels() - 1
        result: BitSat = [
            self._step_bits(time, operand_sat[time + 1], universal)
            for time in range(last)
        ]
        # The final level is absorbing (each point its own successor), so
        # AX phi and EX phi both coincide with phi there.
        result.append(operand_sat[last])
        return result

    def _eval_globally(
        self, operand: Formula, env: Dict[str, BitSat], universal: bool
    ) -> BitSat:
        operand_sat = self._eval(operand, env)
        last = self._levels() - 1
        result: BitSat = [0] * self._levels()
        result[last] = operand_sat[last]
        for time in range(last - 1, -1, -1):
            step = self._step_bits(time, result[time + 1], universal)
            result[time] = operand_sat[time] & step
        return result

    def _eval_eventually(
        self, operand: Formula, env: Dict[str, BitSat], universal: bool
    ) -> BitSat:
        operand_sat = self._eval(operand, env)
        last = self._levels() - 1
        result: BitSat = [0] * self._levels()
        result[last] = operand_sat[last]
        for time in range(last - 1, -1, -1):
            step = self._step_bits(time, result[time + 1], universal)
            result[time] = operand_sat[time] | step
        return result
