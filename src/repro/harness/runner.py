"""Run experiment tasks in separate processes with wall-clock budgets.

Each table cell in the paper is one run of MCK with a 10-minute timeout; the
runner reproduces that protocol: the task is executed in a forked process, and
if it does not finish within the budget it is terminated and the cell is
reported as ``TO``.  A state budget (``max_states``) provides an additional
memory guard that is also reported as ``TO``.

:class:`CaseHandle` is the non-blocking half of the runner: it starts the
child and can be polled against its deadline, which is what lets
:func:`repro.harness.tables.run_table` keep several cells in flight at once.
:func:`run_case` is the blocking convenience wrapper around it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional

from repro.harness import tasks as task_registry
from repro.harness.tasks import TASKS
from repro.obs import profile as obs_profile
from repro.runtime.guard import WallClockExceeded, wall_clock_limit
from repro.systems.space import SpaceBudgetExceeded

#: How long a timed-out child gets to honour SIGTERM before it is SIGKILLed.
#: A worker stuck inside a single long arbitrary-precision integer operation
#: never reaches a bytecode boundary where the default SIGTERM handler runs,
#: so an unbounded ``join()`` after ``terminate()`` can hang forever.
TERM_GRACE_SECONDS = 5.0


@dataclass
class CaseOutcome:
    """Outcome of a single experiment case.

    ``build_seconds``/``check_seconds`` split ``seconds`` into shareable
    artefact construction (model + space) and everything else (satisfaction,
    optimality, synthesis search).  They are None for cells that did not
    report a split (timeouts, errors, journal records written before the
    split existed).  Synthesis cells report a build share of ~0 by
    construction: their space grows inside the search and is not shareable.
    """

    task: str
    params: Dict[str, object]
    seconds: Optional[float]
    timed_out: bool
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    build_seconds: Optional[float] = None
    check_seconds: Optional[float] = None
    #: The task session's metrics snapshot (cache lookups, build
    #: histograms) — journalled alongside the outcome so a finished grid can
    #: be mined for per-cell cache behaviour after the fact.  None for
    #: timeouts, errors and pre-observability journals.
    metrics: Optional[Dict[str, object]] = None
    #: Per-kernel profile summary when the child ran with ``REPRO_PROFILE=1``
    #: (or ``--profile``); None otherwise.
    profile: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when the case completed within its budgets."""
        return not self.timed_out and self.error is None

    def cell(self) -> str:
        """The table-cell rendering: ``MmSS.mmm`` as in the paper, or ``TO``."""
        if self.timed_out:
            return "TO"
        if self.error is not None:
            return "ERR"
        assert self.seconds is not None
        minutes = int(self.seconds // 60)
        seconds = self.seconds - 60 * minutes
        return f"{minutes}m{seconds:06.3f}"


def _child(task_name: str, params: Dict[str, object], pipe, preloaded=None) -> None:
    # The child measures its own elapsed time: the scheduler may be busy
    # (e.g. escalating a sibling's kill) when this child exits, so a
    # harvest-time measurement in the parent would overstate the runtime.
    # ``preloaded`` arrived by reference across the fork (copy-on-write, no
    # pickling); installing it here lets the task's session read the parent's
    # prebuilt space artefacts.
    task_registry.set_active_preloader(preloaded)
    task_registry.consume_last_run()
    # The fork copied the parent's profiling state; this cell's profile must
    # start from zero.  Profiling enablement is re-derived from the
    # environment here for the same reason — the parent imported
    # repro.obs.profile long before --profile set the flag.
    obs_profile.maybe_enable_from_env()
    obs_profile.consume_summary()
    start = time.perf_counter()
    try:
        func = TASKS[task_name]
        result = func(**params)
        run = task_registry.consume_last_run()
        timing = run[:2] if run else None
        observed = {
            "metrics": run[2] if run else None,
            "profile": obs_profile.consume_summary(),
        }
        pipe.send(("ok", result, time.perf_counter() - start, timing, observed))
    except MemoryError:
        pipe.send(("error", "out of memory", None, None))
    except Exception:  # pragma: no cover - defensive: report, don't hang
        pipe.send(("error", traceback.format_exc(limit=5), None, None))
    finally:
        pipe.close()


class CaseHandle:
    """A started experiment case: the forked child plus its result pipe.

    The handle owns two OS resources — the parent end of the result pipe and
    the child process object — and releases both exactly once, in
    :meth:`harvest`, whatever path the case takes (success, error, timeout,
    kill escalation).  The parent's copy of the child end is closed as soon
    as the fork has happened; a 100+-cell sweep that kept all three alive
    per cell would exhaust the fd table (``EMFILE``).
    """

    def __init__(
        self,
        task: str,
        params: Dict[str, object],
        timeout: Optional[float] = None,
        term_grace: float = TERM_GRACE_SECONDS,
        preloaded=None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; known tasks: {sorted(TASKS)}")
        self.task = task
        self.params = params
        self.timeout = timeout
        self.term_grace = term_grace
        self._outcome: Optional[CaseOutcome] = None
        context = multiprocessing.get_context("fork")
        self._pipe, child_pipe = context.Pipe(duplex=False)
        # The preloader rides the fork by reference: CoW pages, no pickling.
        self._process = context.Process(
            target=_child, args=(task, params, child_pipe, preloaded)
        )
        self.started = time.perf_counter()
        self._process.start()
        # The child inherited its own copy of this end across the fork; the
        # parent's copy must go, both to save an fd per cell and so that the
        # parent end sees EOF if the child dies without sending.
        child_pipe.close()

    @property
    def sentinel(self) -> int:
        """Waitable fd that becomes ready when the child exits."""
        return self._process.sentinel

    @property
    def deadline(self) -> Optional[float]:
        """``perf_counter`` time at which the case busts its budget."""
        return None if self.timeout is None else self.started + self.timeout

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the wall-clock budget has elapsed."""
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait (up to ``timeout`` seconds) for the child to exit."""
        self._process.join(timeout)

    def poll(self) -> Optional[CaseOutcome]:
        """Harvest if the child has finished or busted its budget, else None."""
        if self._outcome is not None:
            return self._outcome
        if self._process.is_alive() and not self.expired():
            return None
        return self.harvest()

    def harvest(self) -> CaseOutcome:
        """Reap the child and build the outcome, releasing all OS resources.

        If the child is still alive (budget exceeded), it is sent SIGTERM,
        given :attr:`term_grace` seconds, then SIGKILLed — a child stuck in a
        single long C-level operation never services SIGTERM, and an
        unbounded join would hang the whole table.  Idempotent: the outcome
        is cached and resources are released only once.
        """
        if self._outcome is not None:
            return self._outcome
        elapsed = time.perf_counter() - self.started

        timed_out = False
        if self._process.is_alive():
            timed_out = True
            self._process.terminate()
            self._process.join(self.term_grace)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()

        status, payload, child_seconds, timing, observed = (
            "error", "worker produced no result", None, None, None,
        )
        try:
            if self._pipe.poll():
                message = self._pipe.recv()
                # Tolerate the pre-split 3-tuple and pre-observability
                # 4-tuple shapes: a monkeypatched or stale child sending
                # without timing or metrics is not an error.
                status, payload, child_seconds = message[:3]
                timing = message[3] if len(message) > 3 else None
                observed = message[4] if len(message) > 4 else None
                if not isinstance(observed, dict):
                    observed = None
        except (EOFError, OSError):  # pragma: no cover - torn-down pipe
            pass
        finally:
            self._pipe.close()
        self._process.join()
        self._process.close()

        if timed_out:
            outcome = CaseOutcome(
                task=self.task, params=self.params, seconds=None, timed_out=True
            )
        elif status == "ok":
            outcome = CaseOutcome(
                task=self.task,
                params=self.params,
                seconds=child_seconds if child_seconds is not None else elapsed,
                timed_out=False,
                result=payload,
                build_seconds=timing[0] if timing else None,
                check_seconds=timing[1] if timing else None,
                metrics=(observed or {}).get("metrics"),
                profile=(observed or {}).get("profile"),
            )
        elif isinstance(payload, str) and "SpaceBudgetExceeded" in payload:
            # A state-budget violation surfaces as an error; report it as TO
            # since it plays the same role as the paper's timeout.
            outcome = CaseOutcome(
                task=self.task, params=self.params, seconds=None, timed_out=True
            )
        else:
            outcome = CaseOutcome(
                task=self.task,
                params=self.params,
                seconds=None,
                timed_out=False,
                error=str(payload),
            )
        self._outcome = outcome
        return outcome


def run_case(
    task: str,
    params: Dict[str, object],
    timeout: Optional[float] = None,
    in_process: bool = False,
    term_grace: float = TERM_GRACE_SECONDS,
    preloaded=None,
) -> CaseOutcome:
    """Run one experiment case, optionally with a wall-clock budget.

    ``in_process=True`` skips the fork and runs the task directly; this is
    what the pytest-benchmark benchmarks use so that the measured time is the
    task itself rather than process start-up.  The wall-clock budget still
    applies in-process, enforced with a SIGALRM interval timer — best-effort
    (a task stuck in one long C-level operation cannot be interrupted) and,
    off the main thread, degraded to an explicit ``RuntimeWarning``.

    ``preloaded`` is a :class:`~repro.runtime.preload.Preloader` whose
    read-only space artefacts the task's session consumes instead of
    building; forked children inherit it copy-on-write.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; known tasks: {sorted(TASKS)}")

    if in_process or timeout is None:
        previous_preloader = task_registry._ACTIVE_PRELOADER
        task_registry.set_active_preloader(preloaded)
        task_registry.consume_last_run()
        # The metrics snapshot comes from the task's own session, exactly as
        # in a forked cell; the profile is collected per call.
        obs_profile.maybe_enable_from_env()
        obs_profile.consume_summary()
        start = time.perf_counter()
        try:
            with wall_clock_limit(timeout, label=f"task {task!r}"):
                result = TASKS[task](**params)
        except (WallClockExceeded, SpaceBudgetExceeded):
            # Same verdict as the forked path: a busted wall-clock or state
            # budget is the paper's TO cell, not an error.
            return CaseOutcome(
                task=task, params=params, seconds=None, timed_out=True
            )
        except Exception:
            return CaseOutcome(
                task=task,
                params=params,
                seconds=None,
                timed_out=False,
                error=traceback.format_exc(limit=5),
            )
        finally:
            task_registry.set_active_preloader(previous_preloader)
        elapsed = time.perf_counter() - start
        run = task_registry.consume_last_run()
        return CaseOutcome(
            task=task,
            params=params,
            seconds=elapsed,
            timed_out=False,
            result=result,
            build_seconds=run[0] if run else None,
            check_seconds=run[1] if run else None,
            metrics=run[2] if run else None,
            profile=obs_profile.consume_summary(),
        )

    handle = CaseHandle(
        task, params, timeout=timeout, term_grace=term_grace, preloaded=preloaded
    )
    handle.join(timeout)
    return handle.harvest()
