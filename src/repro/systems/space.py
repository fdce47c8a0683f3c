"""Levelled reachable state spaces.

Under the clock semantics of knowledge, an agent's local state is the pair
``(time, observation)``, so two points are epistemically related only when
they occur at the same time.  This makes a *levelled* representation of the
reachable state space the natural data structure: the set of reachable global
states is stored per time level, together with the joint decision action taken
at each state and the successor relation between consecutive levels.

The space is built incrementally, one level at a time, and every builder
grows it the same way, by :meth:`LevelledSpace.advance`.  This is exactly what
knowledge-based-program synthesis needs: the knowledge conditions at time
``m`` depend only on the reachable states at time ``m``, which in turn depend
only on the actions chosen at earlier times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.systems.actions import Action, JointAction, NOOP
from repro.systems.model import BAModel, GlobalState

#: A point of the system: (time, index of the state within that level).
Point = Tuple[int, int]


def _pack(indices) -> int:
    """Pack an iterable of state indices into a bitmask."""
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


#: The per-level caches :meth:`LevelledSpace.prefix` slices.  Each is keyed
#: by a time, or by a tuple whose first element is one.
_MASK_CACHES = (
    "_group_cache",
    "_level_mask_cache",
    "_obs_mask_cache",
    "_nonfaulty_mask_cache",
    "_pred_mask_cache",
    "_atom_mask_cache",
)


class SpaceBudgetExceeded(RuntimeError):
    """Raised when a state-space build exceeds its configured state budget.

    The benchmark harness converts this (together with wall-clock timeouts)
    into the paper's "TO" table entries.
    """


@dataclass
class LevelledSpace:
    """The reachable state space of ``I_{E,F,P}`` organised by time level."""

    model: BAModel
    horizon: int
    levels: List[List[GlobalState]] = field(default_factory=list)
    actions: List[List[JointAction]] = field(default_factory=list)
    successors: List[List[List[int]]] = field(default_factory=list)
    max_states: Optional[int] = None

    # ------------------------------------------------------------ construction

    @classmethod
    def initial(
        cls, model: BAModel, horizon: Optional[int] = None, max_states: Optional[int] = None
    ) -> "LevelledSpace":
        """Create a space containing only the initial level (time 0)."""
        if horizon is None:
            horizon = model.default_horizon()
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        space = cls(model=model, horizon=horizon, max_states=max_states)
        # Distinct initial states, in order of first occurrence.
        space.levels.append(list(dict.fromkeys(model.initial_states())))
        space._check_budget()
        return space

    def set_actions(self, level: int, joint_actions: List[JointAction]) -> None:
        """Record the joint action chosen at each state of ``level``."""
        if level != len(self.actions):
            raise ValueError(
                f"actions must be set level by level (expected level {len(self.actions)},"
                f" got {level})"
            )
        if len(joint_actions) != len(self.levels[level]):
            raise ValueError("one joint action per state of the level is required")
        self.actions.append(list(joint_actions))

    def extend(self) -> int:
        """Build the next level from the last level and its recorded actions.

        Returns the index of the newly built level.
        """
        level = len(self.levels) - 1
        if level >= self.horizon:
            raise ValueError("space is already complete")
        if len(self.actions) <= level:
            raise ValueError("actions for the current level must be set before extending")

        model = self.model
        new_level: List[GlobalState] = []
        new_index: Dict[GlobalState, int] = {}
        edges: List[List[int]] = []
        for state, joint_action in zip(self.levels[level], self.actions[level]):
            targets: List[int] = []
            seen: set = set()
            for successor in model.successors(state, joint_action, level):
                position = new_index.get(successor)
                if position is None:
                    position = len(new_level)
                    new_index[successor] = position
                    new_level.append(successor)
                if position not in seen:
                    seen.add(position)
                    targets.append(position)
            edges.append(targets)

        self.levels.append(new_level)
        self.successors.append(edges)
        self._check_budget()
        return level + 1

    def advance(self, rule: DecisionRule) -> bool:
        """Grow the space by one step under a decision rule.

        Records ``rule``'s joint actions at the first level without any and,
        if that level lies below the horizon, builds the next one.

        Returns whether a level was built, so ``while space.advance(rule)``
        completes the space.  A :class:`SpaceBudgetExceeded` leaves actions
        on exactly the levels within budget.
        """
        level = len(self.actions)
        if level > self.horizon:
            raise ValueError("space is already complete")
        self.set_actions(level, joint_actions_for_level(self, level, rule))
        if level == self.horizon:
            return False
        self.extend()
        return True

    def prefix(self, horizon: int) -> "LevelledSpace":
        """A horizon-``horizon`` view sharing this space's levels and masks.

        The per-level lists are shared by reference (levels are append-only
        and never mutated once built); the outer lists and the mask caches
        are fresh containers, so a consumer warming *new* masks on the
        prefix never touches this space's caches.
        """
        prefix = LevelledSpace(
            model=self.model,
            horizon=horizon,
            levels=self.levels[: horizon + 1],
            actions=self.actions[: horizon + 1],
            successors=self.successors[:horizon],
            max_states=self.max_states,
        )
        for name in _MASK_CACHES:
            cache = getattr(self, name, None)
            if cache:
                # Predecessor masks of level m read the edges into m + 1.
                last = horizon - 1 if name == "_pred_mask_cache" else horizon
                object.__setattr__(prefix, name, {
                    key: value for key, value in cache.items()
                    if (key[0] if isinstance(key, tuple) else key) <= last
                })
        return prefix

    def _check_budget(self) -> None:
        if self.max_states is not None and self.num_states() > self.max_states:
            raise SpaceBudgetExceeded(
                f"state budget of {self.max_states} states exceeded "
                f"({self.num_states()} states reached)"
            )

    # ------------------------------------------------------------------ access

    def num_states(self) -> int:
        """Total number of stored states across all built levels."""
        return sum(len(level) for level in self.levels)

    def state_at(self, point: Point) -> GlobalState:
        """The global state at a point."""
        time, index = point
        return self.levels[time][index]

    def action_at(self, point: Point) -> Optional[JointAction]:
        """The joint action chosen at a point (``None`` if not yet set)."""
        time, index = point
        if time >= len(self.actions):
            return None
        return self.actions[time][index]

    def eval_atom(self, point: Point, key: Hashable) -> bool:
        """Interpret an atomic proposition at a point."""
        time, _ = point
        return self.model.eval_atom(
            self.state_at(point), time, key, joint_action=self.action_at(point)
        )

    def nonfaulty(self, point: Point, agent: int) -> bool:
        """Whether ``agent`` is nonfaulty at a point."""
        return self.model.nonfaulty(self.state_at(point), agent)

    # ------------------------------------------------------- observation groups

    def _cache(self, name: str) -> Dict:
        cache = getattr(self, name, None)
        if cache is None:
            cache = {}
            object.__setattr__(self, name, cache)
        return cache

    def observation_groups(self, time: int, agent: int) -> Dict[Tuple, List[int]]:
        """Group the states at ``time`` by the observation of ``agent``.

        The groups are the clock-semantics indistinguishability classes for
        the agent at that time.  Results are cached.
        """
        cache = self._cache("_group_cache")
        cache_key = (time, agent)
        if cache_key in cache:
            return cache[cache_key]
        groups: Dict[Tuple, List[int]] = {}
        for index, state in enumerate(self.levels[time]):
            observation = self.model.observation(state, agent)
            groups.setdefault(observation, []).append(index)
        cache[cache_key] = groups
        return groups

    # --------------------------------------------------------- packed bitmasks
    #
    # The fast satisfaction engine (repro.core.checker) represents a subset of
    # the states of a level as a single arbitrary-precision int (bit j <->
    # state j).  The masks below are the per-(level, agent) inputs of the
    # epistemic operators, precomputed once and cached: levels are append-only,
    # so a mask computed for an already-built level never becomes stale.

    def level_mask(self, time: int) -> int:
        """The full bitmask of a level (all states set)."""
        cache = self._cache("_level_mask_cache")
        mask = cache.get(time)
        if mask is None:
            mask = (1 << len(self.levels[time])) - 1
            cache[time] = mask
        return mask

    def observation_masks(self, time: int, agent: int) -> Dict[Tuple, int]:
        """The observation partition of ``agent`` at ``time`` as block bitmasks.

        Maps each reachable observation to the bitmask of the states sharing
        it — the packed form of :meth:`observation_groups`, and the unit over
        which ``Knows`` quantifies.  The lowest set bit of a block is the
        group's representative state (``members[0]`` of the list form).
        """
        cache = self._cache("_obs_mask_cache")
        cache_key = (time, agent)
        masks = cache.get(cache_key)
        if masks is None:
            masks = {
                observation: _pack(members)
                for observation, members in self.observation_groups(time, agent).items()
            }
            cache[cache_key] = masks
        return masks

    def nonfaulty_mask(self, time: int, agent: int) -> int:
        """Bitmask of the states at ``time`` where ``agent`` is nonfaulty."""
        cache = self._cache("_nonfaulty_mask_cache")
        cache_key = (time, agent)
        mask = cache.get(cache_key)
        if mask is None:
            mask = _pack(
                index
                for index, state in enumerate(self.levels[time])
                if self.model.nonfaulty(state, agent)
            )
            cache[cache_key] = mask
        return mask

    def predecessor_masks(self, time: int) -> List[int]:
        """Per state of ``time+1``, the bitmask of its predecessors at ``time``.

        The transposed form of the successor relation: entry ``j`` is the
        mask of states at ``time`` with state ``j`` of ``time+1`` among their
        successors.  Only valid for levels whose successor edges have been
        built (``time < len(self.successors)``).  The checker's temporal
        steps iterate over the set bits of a target set and union these
        masks, which beats a per-state scan whenever the target (or its
        complement) is sparse.
        """
        cache = self._cache("_pred_mask_cache")
        masks = cache.get(time)
        if masks is None:
            masks = [0] * len(self.levels[time + 1])
            for index, targets in enumerate(self.successors[time]):
                bit = 1 << index
                for target in targets:
                    masks[target] |= bit
            cache[time] = masks
        return masks

    def atom_mask(self, time: int, key: Hashable) -> int:
        """One level's interpretation of an atomic proposition, packed.

        The packed, cached sibling of :meth:`eval_atom`: bit ``j`` is set iff
        the atom holds at point ``(time, j)``.  The structured keys of
        :mod:`repro.logic.atoms` are dispatched once per level rather than
        once per state (the generic :meth:`BAModel.eval_atom` re-inspects the
        key at every point, which dominates checking time on large levels);
        observation-feature atoms are evaluated once per observation block,
        since all states of a block share the observation and hence the
        features.  Unknown keys fall back to the model's general interpreter.

        Results are cached per (time, key): levels and their recorded actions
        are append-only, so a computed mask never goes stale.
        """
        cache = self._cache("_atom_mask_cache")
        cache_key = (time, key)
        bits = cache.get(cache_key)
        if bits is None:
            bits = self._compute_atom_mask(time, key)
            cache[cache_key] = bits
        return bits

    def _compute_atom_mask(self, time: int, key: Hashable) -> int:
        states = self.levels[time]
        kind = key[0] if isinstance(key, tuple) and key else key
        bits = 0
        if kind == "init":
            _, agent, value = key
            for index, state in enumerate(states):
                if state.locals[agent].init == value:
                    bits |= 1 << index
        elif kind == "exists":
            _, value = key
            for index, state in enumerate(states):
                for local in state.locals:
                    if local.init == value:
                        bits |= 1 << index
                        break
        elif kind == "decided":
            _, agent = key
            for index, state in enumerate(states):
                if state.locals[agent].decided:
                    bits |= 1 << index
        elif kind == "decision":
            _, agent, value = key
            for index, state in enumerate(states):
                local = state.locals[agent]
                if local.decided and local.decision == value:
                    bits |= 1 << index
        elif kind == "some_decided":
            _, value = key
            for index, state in enumerate(states):
                for local in state.locals:
                    if local.decided and local.decision == value:
                        bits |= 1 << index
                        break
        elif kind == "decides_now":
            _, agent, value = key
            if time >= len(self.actions):
                # No actions recorded for this level: delegate so the error
                # reporting matches the general interpreter.
                return self._atom_mask_fallback(time, key)
            actions = self.actions[time]
            for index in range(len(states)):
                if actions[index][agent] == value:
                    bits |= 1 << index
        elif kind == "nonfaulty":
            _, agent = key
            bits = self.nonfaulty_mask(time, agent)
        elif kind == "time":
            _, when = key
            bits = self.level_mask(time) if time == when else 0
        elif kind == "obs":
            # Evaluated once per observation block: states sharing an
            # observation share its features.  This is the invariant the
            # whole predicates layer rests on (ObservationPredicate keys
            # features by observation); an exchange whose features are not a
            # function of the observation would break both.
            _, agent, feature, value = key
            groups = self.observation_groups(time, agent)
            masks = self.observation_masks(time, agent)
            for observation, members in groups.items():
                features = self.model.observation_features(states[members[0]], agent)
                if feature not in features:
                    raise KeyError(
                        f"unknown observable feature {feature!r} for exchange "
                        f"{self.model.exchange.name!r}"
                    )
                if features[feature] == value:
                    bits |= masks[observation]
        else:
            return self._atom_mask_fallback(time, key)
        return bits

    def _atom_mask_fallback(self, time: int, key: Hashable) -> int:
        bits = 0
        for index in range(len(self.levels[time])):
            if self.eval_atom((time, index), key):
                bits |= 1 << index
        return bits


# ---------------------------------------------------------------------------
# Building a space from a decision protocol
# ---------------------------------------------------------------------------

#: A decision rule: (agent, local state, time) -> action.  The rule is only
#: consulted for agents that have not decided and can still act.
DecisionRule = Callable[[int, Tuple, int], Action]


def noop_rule(agent: int, local: Tuple, time: int) -> Action:
    """The decision rule that never decides (pure information exchange)."""
    return NOOP


def joint_actions_for_level(
    space: LevelledSpace, level: int, rule: DecisionRule
) -> List[JointAction]:
    """Compute the joint action at every state of a level under ``rule``."""
    model = space.model
    joint_actions: List[JointAction] = []
    for state in space.levels[level]:
        actions: List[Action] = []
        for agent in model.agents():
            local = state.locals[agent]
            if local.decided or not model.can_act(state, agent):
                actions.append(NOOP)
            else:
                actions.append(rule(agent, local, level))
        joint_actions.append(tuple(actions))
    return joint_actions


def build_space(
    model: BAModel,
    rule: Optional[DecisionRule] = None,
    horizon: Optional[int] = None,
    max_states: Optional[int] = None,
) -> LevelledSpace:
    """Build the complete levelled space of ``I_{E,F,P}`` for a decision rule.

    Parameters
    ----------
    model:
        The Byzantine-Agreement model ``(E, F)``.
    rule:
        The decision protocol ``P`` as a function of the agent's local state
        and the time.  ``None`` means "never decide" and yields the pure
        information-exchange system used for earliest-knowledge analyses.
    horizon:
        Number of rounds to model; defaults to ``t + 2``.
    max_states:
        Optional state budget; exceeding it raises
        :class:`SpaceBudgetExceeded` (reported as "TO" by the harness).
    """
    if rule is None:
        rule = noop_rule
    space = LevelledSpace.initial(model, horizon=horizon, max_states=max_states)
    while space.advance(rule):
        pass
    return space
