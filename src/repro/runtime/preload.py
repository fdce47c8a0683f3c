"""The :class:`Preloader`: read-only space artefacts built before forking.

Both fork planes use one discipline, the per-worker preload idiom: the
parent process builds the space artefacts its children will need *before*
forking, the fork inherits them copy-on-write, and nothing in the parent
mutates them afterwards — so N children share one build at zero copy cost,
and a child warming additional (formula-specific) masks dirties only its own
pages.

* The grid scheduler groups pending cells by :class:`~repro.runtime.plan.
  SpaceKey`, calls :meth:`Preloader.ensure` for each group at the largest
  horizon any of its cells needs, forks the group's cells, then
  :meth:`Preloader.release`\\ s the group so the parent's footprint stays one
  group wide.
* ``repro serve --preload SPEC`` parses a scenario frontier
  (:func:`parse_frontier`), preloads every distinct space the frontier's
  checking cells would build, and forks workers that answer their first
  queries warm.

Sessions consume a preloader through ``Session(preloaded=...)``: space
lookups that miss the cache are served from the preloaded artefacts
(counted in ``stats().preloaded``) instead of building.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.api.scenario import TASK_FIELDS, Scenario
from repro.runtime.plan import (
    SHARED_SPACE_TASKS,
    SpaceArtefacts,
    SpaceKey,
    build_space_artefacts,
    model_key,
    resolve_horizon,
)
from repro.systems.space import LevelledSpace

#: Frontier spec names understood by ``serve --preload`` (the experiment
#: grids, i.e. the traffic shapes the paper's tables imply).
FRONTIER_NAMES = (
    "table1", "table2", "table3", "ablation-temporal", "ablation-failures",
)


class Preloader:
    """A table of read-only :class:`SpaceArtefacts`, built parent-side.

    Single-writer by design: the owning (parent) process populates it via
    :meth:`ensure`/:meth:`preload_cells`; sessions — in this process or in
    forked children — only read.  Reads race benignly against a concurrent
    background preload (``serve --preload`` with one worker): a key is
    either fully published or absent, never half-built, because artefacts
    are only inserted after their build completes.
    """

    def __init__(self) -> None:
        self._artefacts: Dict[SpaceKey, SpaceArtefacts] = {}
        self._models: Dict[Tuple, object] = {}

    # ------------------------------------------------------------- population

    def ensure(
        self, scenario: Scenario, horizon: Optional[int] = None
    ) -> SpaceArtefacts:
        """Build (or reuse) the artefacts for a scenario's space.

        ``horizon`` is the largest horizon the artefacts must serve (the
        scenario's own resolved horizon by default).  An existing build that
        already covers it — or that busted the state budget, which no taller
        rebuild can fix — is reused; otherwise the space is rebuilt at the
        larger horizon (never extended in place: sessions may already hold
        the published object, whose recorded horizon must not change under
        them).
        """
        key = SpaceKey.from_scenario(scenario)
        target = horizon if horizon is not None else resolve_horizon(scenario)
        existing = self._artefacts.get(key)
        if existing is not None and (
            existing.target_horizon >= target or existing.budget_exceeded
        ):
            return existing
        artefacts = build_space_artefacts(scenario, horizon=target)
        self._artefacts[key] = artefacts
        self._models[model_key(scenario)] = artefacts.model
        return artefacts

    def preload_cells(
        self, cells: Iterable[Tuple[str, Scenario]]
    ) -> Dict[str, int]:
        """Preload every distinct space a frontier's checking cells build.

        Cells whose task builds no shareable space (synthesis) are skipped —
        preloading a literature-protocol space they will never read would
        only cost memory.  Returns a small summary for logging.
        """
        demands: Dict[SpaceKey, Tuple[Scenario, int]] = {}
        skipped = 0
        for task, scenario in cells:
            if task not in SHARED_SPACE_TASKS:
                skipped += 1
                continue
            key = SpaceKey.from_scenario(scenario)
            horizon = resolve_horizon(scenario)
            known = demands.get(key)
            if known is None or horizon > known[1]:
                demands[key] = (scenario, horizon)
        for scenario, horizon in demands.values():
            self.ensure(scenario, horizon=horizon)
        return {
            "spaces": len(demands),
            "states": self.total_states(),
            "skipped_cells": skipped,
        }

    def release(self, key: SpaceKey) -> None:
        """Drop the parent's reference to one space's artefacts.

        Children forked while the artefacts were live keep their
        copy-on-write view; releasing only bounds the parent's footprint.
        The (tiny) model stays cached.
        """
        self._artefacts.pop(key, None)

    # ---------------------------------------------------------------- lookup

    def space_for(
        self, scenario: Scenario, horizon: int
    ) -> Optional[LevelledSpace]:
        """The preloaded space for a scenario at a horizon, if covered.

        May raise :class:`~repro.systems.space.SpaceBudgetExceeded` when the
        preloaded build busted the same budget a fresh build would bust.
        """
        artefacts = self._artefacts.get(SpaceKey.from_scenario(scenario))
        if artefacts is None:
            return None
        return artefacts.space_for(horizon)

    def model_for(self, scenario: Scenario):
        """The preloaded model for a scenario's model slice, if any."""
        return self._models.get(model_key(scenario))

    def total_states(self) -> int:
        """Total states across all live artefacts (parent-side footprint)."""
        return sum(
            artefacts.space.num_states()
            for artefacts in self._artefacts.values()
            if artefacts.space is not None
        )

    def __len__(self) -> int:
        return len(self._artefacts)

    def __contains__(self, key: SpaceKey) -> bool:
        return key in self._artefacts


def parse_frontier(spec: str) -> List[Tuple[str, Scenario]]:
    """Parse a ``serve --preload`` scenario-frontier spec into (task, scenario).

    The spec names one of the experiment grids plus optional comma-separated
    options: ``table1``, ``table1:max-n=4``.
    The grid's resolved cells *are* the frontier — the queries a service
    warmed for that table should answer without a cold build.  Raises
    ``ValueError`` for unknown names or malformed options, so the CLI can
    reject a typo before binding a socket.
    """
    # Local import: harness.tables imports this package at module level, so
    # hoisting would close an import cycle.  The race IMP01 guards against
    # cannot bite here: serve() calls parse_frontier on the main thread,
    # before the preload worker or any serving thread exists.
    from repro.harness.tables import (  # lint: disable=IMP01
        _resolved_cells,
        ablation_failure_models,
        ablation_temporal_only,
        table1_spec,
        table2_spec,
        table3_spec,
    )

    factories = {
        "table1": table1_spec,
        "table2": table2_spec,
        "table3": table3_spec,
        "ablation-temporal": ablation_temporal_only,
        "ablation-failures": ablation_failure_models,
    }
    name, _, raw_options = spec.partition(":")
    if name not in factories:
        raise ValueError(
            f"unknown preload frontier {name!r} "
            f"(expected one of {sorted(factories)})"
        )
    kwargs: Dict[str, object] = {}
    if raw_options:
        for part in raw_options.split(","):
            option, separator, value = part.partition("=")
            if not separator or not value:
                raise ValueError(
                    f"malformed preload option {part!r} (expected key=value)"
                )
            if option == "max-n":
                try:
                    kwargs["max_n"] = int(value)
                except ValueError as exc:
                    raise ValueError(
                        f"preload option max-n must be an integer, got {value!r}"
                    ) from exc
            else:
                raise ValueError(
                    f"unknown preload option {option!r} (expected max-n)"
                )
    table_spec = factories[name](**kwargs)

    cells: List[Tuple[str, Scenario]] = []
    for _, _, task, params in _resolved_cells(table_spec, None):
        if task in TASK_FIELDS:
            cells.append((task, Scenario.from_task_params(task, params)))
    return cells
