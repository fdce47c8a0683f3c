"""The compute plane: space planning and pre-fork builds.

Both fork planes — the grid scheduler (:func:`repro.harness.tables.run_table`)
and the pre-fork serving front (``repro serve --workers N``) — pay the same
dominant cold cost: every forked child rebuilds its
:class:`~repro.systems.space.LevelledSpace` from scratch, even when dozens of
cells or queries share one (exchange, n, t, failures) space.  This package is
the shared mechanism that amortises that cost:

* :mod:`repro.runtime.plan` — :class:`SpaceKey`, the horizon-independent
  identity of a space, and :func:`build_space_artefacts`, the build pipeline
  extracted out of ``Session._space`` (space plus pre-warmed packed bitset
  masks, budget-tolerant, horizon-prefix-sharable);
* :mod:`repro.runtime.preload` — :class:`Preloader`, a read-only artefact
  set built in the parent process *before* forking so children inherit it
  copy-on-write, plus the ``serve --preload`` scenario-frontier parser;
* :mod:`repro.runtime.guard` — the SIGALRM wall-clock guard shared by
  in-process case runs and parent-side preloads.
"""

from repro.runtime.guard import WallClockExceeded, wall_clock_limit
from repro.runtime.plan import (
    SHARED_SPACE_TASKS,
    SpaceArtefacts,
    SpaceKey,
    SpacePlan,
    build_space_artefacts,
    cell_space_plan,
    model_cache_key,
    model_key,
    space_cache_key,
    space_plan,
)
from repro.runtime.preload import Preloader, parse_frontier

__all__ = [
    "SHARED_SPACE_TASKS",
    "Preloader",
    "SpaceArtefacts",
    "SpaceKey",
    "SpacePlan",
    "WallClockExceeded",
    "build_space_artefacts",
    "cell_space_plan",
    "model_cache_key",
    "model_key",
    "parse_frontier",
    "space_cache_key",
    "space_plan",
    "wall_clock_limit",
]
