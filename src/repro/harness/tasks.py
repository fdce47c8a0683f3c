"""Experiment tasks: the work behind each table cell.

Every task is a module-level function taking plain keyword arguments and
returning a small JSON-like dictionary, so it can be executed in a separate
process by :mod:`repro.harness.runner`.  Since the API redesign the tasks are
thin shims over the :mod:`repro.api` facade: each one builds a validated
:class:`~repro.api.Scenario` from its keyword arguments (via
``Scenario.from_task_params``, which is also what canonicalises the store
keys) and runs the corresponding typed query through a fresh
:class:`~repro.api.Session`.  A task gets a *fresh* session on purpose: grid
cells run in forked children anyway, and the in-process runs the benchmarks
use must measure real construction cost, not a warm cache.  Long-lived
callers that want amortisation (the CLI one-shots, ``repro serve``) hold a
session of their own.

Two process-local channels connect the tasks to the compute plane without
changing the task signatures (which are pickled across the fork boundary as
plain kwargs):

* :func:`set_active_preloader` installs a
  :class:`~repro.runtime.preload.Preloader` whose read-only artefacts every
  subsequent task's session consumes (forked children inherit the parent's
  preloader copy-on-write and the runner re-installs it after the fork).
* :data:`LAST_RUN` publishes each task's ``(build_seconds,
  check_seconds)`` split and its session's metrics snapshot, which the
  runner attaches to the cell outcome.

The returned dictionaries are the typed results' legacy ``to_dict`` form,
byte-compatible with pre-redesign result journals.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.api import Scenario, Session
from repro.engines import DEFAULT_ENGINE

#: The preloader whose artefacts task sessions consume (process-local).
_ACTIVE_PRELOADER = None

#: The ``(build_seconds, check_seconds, metrics)`` of the last task run in
#: this process, or None; ``metrics`` is the task session's registry
#: snapshot.  A side channel rather than a return-value change so the task
#: result dictionaries stay byte-compatible with existing journals.
LAST_RUN: Optional[Tuple[float, float, Dict[str, dict]]] = None


def set_active_preloader(preloader) -> None:
    """Install the process-local preloader task sessions will consume."""
    global _ACTIVE_PRELOADER
    _ACTIVE_PRELOADER = preloader


def consume_last_run() -> Optional[Tuple[float, float, Dict[str, dict]]]:
    """Pop the ``(build, check, metrics)`` of the last task run, if any."""
    global LAST_RUN
    run, LAST_RUN = LAST_RUN, None
    return run


def _run_timed(query: Callable[[Session], object]) -> Dict[str, object]:
    """Run one query on a fresh session and publish its timing and metrics.

    ``build_seconds`` is the session's shareable-artefact build time (model +
    space) — the part a preloaded space amortises away; ``check_seconds`` is
    everything else (satisfaction, optimality, synthesis search).  Synthesis
    cells build their space incrementally inside the search, so their build
    share is reported as ~0 by construction: there is no shareable build.
    """
    global LAST_RUN
    session = Session(preloaded=_ACTIVE_PRELOADER)
    start = time.perf_counter()
    result = query(session)
    total = time.perf_counter() - start
    build = session.build_seconds()
    LAST_RUN = (min(build, total), max(total - build, 0.0),
                session.metrics.snapshot())
    return result.to_dict()


def sba_model_check_task(
    exchange: str,
    num_agents: int,
    max_faulty: int,
    num_values: int = 2,
    failures: str = "crash",
    rounds: Optional[int] = None,
    optimal_protocol: bool = False,
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """Model check an SBA protocol: temporal specification + knowledge analysis.

    This mirrors the paper's model-checking experiments: the space generated
    by the literature protocol is built, the SBA specification formulas are
    checked, and the protocol's decisions are compared against the knowledge
    condition ``B^N_i CB_N ∃v`` at every point (the optimality check).
    """
    scenario = Scenario.from_task_params(
        "sba-model-check",
        dict(
            exchange=exchange, num_agents=num_agents, max_faulty=max_faulty,
            num_values=num_values, failures=failures, rounds=rounds,
            optimal_protocol=optimal_protocol, max_states=max_states,
            engine=engine,
        ),
    )
    return _run_timed(lambda session: session.check(scenario))


def sba_temporal_only_task(
    exchange: str,
    num_agents: int,
    max_faulty: int,
    num_values: int = 2,
    failures: str = "crash",
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """Model check only the purely temporal SBA specification.

    This is the ablation suggested by the paper's concluding remark: checking
    the temporal specification alone (no knowledge or common-belief
    operators) scales considerably better.
    """
    scenario = Scenario.from_task_params(
        "sba-temporal-only",
        dict(
            exchange=exchange, num_agents=num_agents, max_faulty=max_faulty,
            num_values=num_values, failures=failures, max_states=max_states,
            engine=engine,
        ),
    )
    return _run_timed(lambda session: session.check_temporal(scenario))


def sba_synthesis_task(
    exchange: str,
    num_agents: int,
    max_faulty: int,
    num_values: int = 2,
    failures: str = "crash",
    rounds: Optional[int] = None,
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """Synthesize the optimal SBA protocol for an exchange and failure model."""
    scenario = Scenario.from_task_params(
        "sba-synthesis",
        dict(
            exchange=exchange, num_agents=num_agents, max_faulty=max_faulty,
            num_values=num_values, failures=failures, rounds=rounds,
            max_states=max_states, engine=engine,
        ),
    )
    return _run_timed(lambda session: session.synthesize(scenario))


def eba_synthesis_task(
    exchange: str,
    num_agents: int,
    max_faulty: int,
    failures: str = "sending",
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """Synthesize an implementation of ``P0`` for an EBA exchange."""
    scenario = Scenario.from_task_params(
        "eba-synthesis",
        dict(
            exchange=exchange, num_agents=num_agents, max_faulty=max_faulty,
            failures=failures, max_states=max_states, engine=engine,
        ),
    )
    return _run_timed(lambda session: session.synthesize(scenario))


def eba_model_check_task(
    exchange: str,
    num_agents: int,
    max_faulty: int,
    failures: str = "sending",
    max_states: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """Model check the literature EBA protocol against the EBA specification."""
    scenario = Scenario.from_task_params(
        "eba-model-check",
        dict(
            exchange=exchange, num_agents=num_agents, max_faulty=max_faulty,
            failures=failures, max_states=max_states, engine=engine,
        ),
    )
    return _run_timed(lambda session: session.check(scenario))


#: Registry used by the subprocess runner (names must be stable).
TASKS = {
    "sba-model-check": sba_model_check_task,
    "sba-temporal-only": sba_temporal_only_task,
    "sba-synthesis": sba_synthesis_task,
    "eba-synthesis": eba_synthesis_task,
    "eba-model-check": eba_model_check_task,
}
