"""Experiment tasks: the work behind each table cell.

A task is a stable name (it keys the journals) plus plain keyword
parameters.  :func:`run_task` runs one: it builds a validated
:class:`~repro.api.Scenario` from the parameters (via
``Scenario.from_task_params``, which is also what canonicalises the store
keys) and runs the task's :data:`QUERIES` entry on a *fresh*
:class:`~repro.api.Session`.  A cell gets a fresh session on purpose: its
time must be its own construction cost, not a warm cache's.  The only
artefacts it reads ready-made are the grid's preloaded spaces, which the
runner hands over across the fork.  Long-lived callers that want
amortisation (the CLI one-shots, ``repro serve``) hold a session of their
own.

:data:`TASKS` maps every task name to a callable returning the typed
result's legacy ``to_dict`` form, byte-compatible with pre-redesign result
journals.  Tests register ad-hoc tasks straight into it; :func:`run_task`
runs those unchanged.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, NamedTuple, Optional

from repro.api import Scenario, Session

#: The :class:`~repro.api.Session` query behind each scenario task.
QUERIES: Dict[str, str] = {
    "sba-model-check": "check",
    "sba-temporal-only": "check_temporal",
    "sba-synthesis": "synthesize",
    "eba-synthesis": "synthesize",
    "eba-model-check": "check",
}


class TaskRun(NamedTuple):
    """One task run: its result dictionary and where the time went.

    ``build_seconds`` is the session's shareable-artefact build time (model +
    space) — the part a preloaded space amortises away; ``check_seconds`` is
    everything else (satisfaction, optimality, synthesis search).  Synthesis
    cells build their space incrementally inside the search, so their build
    share is ~0 by construction: there is no shareable build.  ``metrics`` is
    the task session's registry snapshot.  Ad-hoc tasks report none of the
    three.
    """

    result: Dict[str, object]
    build_seconds: Optional[float] = None
    check_seconds: Optional[float] = None
    metrics: Optional[Dict[str, dict]] = None


def run_task(task: str, params: Dict[str, object], preloaded=None) -> TaskRun:
    """Run one task on a fresh session that reads ``preloaded``'s spaces."""
    query = QUERIES.get(task)
    if query is None:
        return TaskRun(TASKS[task](**params))
    scenario = Scenario.from_task_params(task, params)
    session = Session(preloaded=preloaded)
    start = time.perf_counter()
    result = getattr(session, query)(scenario)
    total = time.perf_counter() - start
    build = session.build_seconds()
    return TaskRun(
        result.to_dict(),
        min(build, total),
        max(total - build, 0.0),
        session.metrics.snapshot(),
    )


def _result_of(task: str, **params: object) -> Dict[str, object]:
    return run_task(task, params).result


#: Every runnable task by name (names must be stable: they key the journals).
TASKS: Dict[str, Callable[..., Dict[str, object]]] = {
    task: functools.partial(_result_of, task) for task in QUERIES
}
