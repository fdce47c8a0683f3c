"""Space planning: the horizon-independent identity and build pipeline.

This module is ``Session._model_key``/``Session._space`` factored out of the
session so that *both* fork planes can name and build a space without a
session: :class:`SpaceKey` is the identity of one literature-protocol space,
:func:`build_space_artefacts` is the build pipeline (space plus pre-warmed
packed bitset masks), and :func:`cell_space_plan` maps a grid cell onto the
space it would build — ``None`` for cells that build no shareable space.

The key excludes the horizon, and that is load-bearing.  Levels are built
incrementally and deterministically — the decision rule sees only (agent,
local state, time) — so the space at horizon ``h`` is a *prefix* of the
space at any larger horizon.  One build at the largest horizon a group of
cells needs serves every smaller-horizon cell through
:meth:`SpaceArtefacts.space_for` (Table 2's rounds sweeps are dozens of
cells over a handful of spaces for precisely this reason).  Prefixes share
the per-level state lists and the warmed mask caches; they are never
mutated after a level is built, so sharing is safe in-process and free
across forks (copy-on-write).

The session cache keys produced by :func:`model_cache_key` and
:func:`space_cache_key` reproduce the pre-refactor ``Session`` tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.api.build import build_model, literature_protocol
from repro.api.scenario import Scenario
from repro.systems.space import LevelledSpace, SpaceBudgetExceeded

#: Tasks whose cells build the literature-protocol space a :class:`SpaceKey`
#: names.  The synthesis tasks are *not* here on purpose: synthesis grows its
#: own space incrementally under the synthesized rule (the actions at level m
#: depend on the conditions synthesized at earlier levels), so no prebuilt
#: literature-protocol space can serve it.
SHARED_SPACE_TASKS = ("sba-model-check", "sba-temporal-only", "eba-model-check")


@dataclass(frozen=True)
class SpaceKey:
    """The horizon-independent identity of one levelled space.

    Everything that shapes the reachable states and recorded actions:
    the information exchange, the system size, the value domain, the failure
    model, the (named) decision protocol and the state budget.  Frozen and
    hashable so it can key preloader tables and scheduler groups directly.
    """

    exchange: str
    num_agents: int
    max_faulty: int
    num_values: int
    failures: str
    protocol: str
    max_states: Optional[int]

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "SpaceKey":
        return cls(
            exchange=scenario.exchange,
            num_agents=scenario.num_agents,
            max_faulty=scenario.max_faulty,
            num_values=scenario.num_values,
            failures=scenario.failures,
            protocol=literature_protocol(scenario).name,
            max_states=scenario.max_states,
        )


@dataclass(frozen=True)
class SpacePlan:
    """One cell's space demand: the key plus the horizon the cell checks to."""

    key: SpaceKey
    horizon: int


def model_key(scenario: Scenario) -> Tuple:
    """The model slice of a scenario (the pre-refactor ``Session._model_key``)."""
    return (
        scenario.exchange,
        scenario.num_agents,
        scenario.max_faulty,
        scenario.num_values,
        scenario.failures,
    )


def model_cache_key(scenario: Scenario) -> Tuple:
    """The session cache key of a scenario's model (stable tuple)."""
    return ("model",) + model_key(scenario)


def space_cache_key(scenario: Scenario, protocol_name: str, horizon: int) -> Tuple:
    """The session cache key of a scenario's space (stable tuple)."""
    return ("space",) + model_key(scenario) + (
        protocol_name, horizon, scenario.max_states,
    )


def resolve_horizon(scenario: Scenario, model=None) -> int:
    """The horizon a scenario's queries run to (``rounds`` or the default)."""
    if scenario.rounds is not None:
        return scenario.rounds
    if model is None:
        model = build_model(scenario)
    return model.default_horizon()


def space_plan(scenario: Scenario) -> SpacePlan:
    """The space a scenario's literature-protocol queries would build."""
    return SpacePlan(
        key=SpaceKey.from_scenario(scenario), horizon=resolve_horizon(scenario)
    )


def cell_space_plan(task: str, params: Mapping[str, object]) -> Optional[SpacePlan]:
    """The space plan of one grid cell, or None when nothing is shareable.

    Ad-hoc tasks (tests register those straight into the runner's ``TASKS``)
    and the synthesis tasks return None: the scheduler runs such cells on the
    per-cell rebuild path unchanged.
    """
    if task not in SHARED_SPACE_TASKS:
        return None
    try:
        scenario = Scenario.from_task_params(task, dict(params))
    except (TypeError, ValueError):
        return None
    return space_plan(scenario)


@dataclass
class SpaceArtefacts:
    """One built space plus everything needed to serve it read-only.

    ``built_horizon`` is the last level whose states, actions and (below the
    top) successors are complete *and* within the state budget; with
    ``budget_exceeded`` the build stopped early and levels past
    ``built_horizon`` are unreachable under this budget for any fresh build
    too.  After construction the artefacts are treated as read-only: levels
    and masks are only ever *read* by sessions (in-process) or inherited
    copy-on-write by forked children; nothing mutates them in the parent.
    """

    key: SpaceKey
    model: object
    protocol: object
    space: Optional[LevelledSpace]
    built_horizon: int
    target_horizon: int
    budget_exceeded: bool = False

    def space_for(self, horizon: int) -> Optional[LevelledSpace]:
        """The space at exactly ``horizon``, served from this build.

        Returns the built space itself at the exact horizon, its
        :meth:`~repro.systems.space.LevelledSpace.prefix` for smaller
        horizons, or None when this build stopped short of the request
        without busting its budget (the caller builds fresh).  When
        the budget *was* busted below the requested horizon, raises
        :class:`SpaceBudgetExceeded` — a fresh build of the same scenario
        would bust at the same extension, so raising here is equivalence,
        not a shortcut.
        """
        if horizon > self.built_horizon:
            if self.budget_exceeded:
                raise SpaceBudgetExceeded(
                    f"state budget of {self.key.max_states} states exceeded "
                    f"(preloaded build of {self.key} stopped at level "
                    f"{self.built_horizon})"
                )
            return None
        assert self.space is not None
        if horizon == self.target_horizon and not self.budget_exceeded:
            return self.space
        return self.space.prefix(horizon)


def _warm_masks(space: LevelledSpace, built_horizon: int) -> None:
    """Precompute the packed bitset masks every checker consults.

    This is the copy-on-write payload: the per-(level, agent) observation
    partitions, nonfaulty masks, level masks and predecessor masks are what
    the checker hits first on every query; computing them once in
    the parent means every forked child inherits them for free.  Atom masks
    are formula-specific and stay lazy.
    """
    agents = list(space.model.agents())
    for time in range(built_horizon + 1):
        space.level_mask(time)
        for agent in agents:
            space.observation_masks(time, agent)
            space.nonfaulty_mask(time, agent)
        if time < built_horizon and time < len(space.successors):
            space.predecessor_masks(time)


def build_space_artefacts(
    scenario: Scenario,
    horizon: Optional[int] = None,
) -> SpaceArtefacts:
    """Build one scenario's space artefacts, budget-tolerantly.

    The build pipeline extracted from ``Session._space``: model, literature
    protocol, then the levelled space built level by level to ``horizon``
    (the scenario's resolved horizon by default).  Unlike
    :func:`~repro.systems.space.build_space`, a state-budget bust does not
    discard the work: every level completed within budget is kept and
    remains servable to smaller-horizon cells, which see exactly the space
    their own fresh build would have produced (the budget check is a running
    total over built levels, so the bust point is horizon-independent).
    """
    model = build_model(scenario)
    protocol = literature_protocol(scenario)
    target = horizon if horizon is not None else resolve_horizon(scenario, model)

    try:
        space = LevelledSpace.initial(
            model, horizon=target, max_states=scenario.max_states
        )
    except SpaceBudgetExceeded:
        return SpaceArtefacts(
            key=SpaceKey.from_scenario(scenario),
            model=model,
            protocol=protocol,
            space=None,
            built_horizon=-1,
            target_horizon=target,
            budget_exceeded=True,
        )

    budget_exceeded = False
    try:
        while space.advance(protocol):
            pass
    except SpaceBudgetExceeded:
        # The over-budget level is fully constructed (extend() appends before
        # checking) but carries no actions; prefix serving never reaches it.
        budget_exceeded = True
    built = len(space.actions) - 1

    _warm_masks(space, built)
    return SpaceArtefacts(
        key=SpaceKey.from_scenario(scenario),
        model=model,
        protocol=protocol,
        space=space,
        built_horizon=built,
        target_horizon=target,
        budget_exceeded=budget_exceeded,
    )
