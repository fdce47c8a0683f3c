"""Run experiment tasks in forked processes with wall-clock budgets.

Each table cell in the paper is one run of MCK with a 10-minute timeout; the
runner reproduces that protocol: every cell runs in a forked child, and if it
does not finish within the budget it is terminated and the cell is reported
as ``TO``.  A state budget (``max_states``) provides an additional memory
guard that is also reported as ``TO``.  There is no in-process path: a budget
is only enforceable on a process the runner can kill.

The child runs :func:`_execute`, which turns one
:func:`~repro.harness.tasks.run_task` into a :class:`CaseOutcome`, and pipes
the whole outcome back.  :class:`CaseHandle` is the non-blocking half of the
runner: it starts the child and can be polled against its deadline, which is
what lets :func:`repro.harness.tables.run_table` keep several cells in flight
at once.  :func:`run_case` is the blocking wrapper around it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional

from repro.harness.tasks import TASKS, run_task
from repro.obs import profile as obs_profile
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
    report a split (timeouts, errors, ad-hoc tasks, journal records written
    before the split existed).  Synthesis cells report a build share of ~0 by
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


def validate_timeout(timeout: Optional[float]) -> None:
    """Refuse a wall-clock budget that is not positive (None is unbounded)."""
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout:g}")


def _execute(task: str, params: Dict[str, object], preloaded) -> CaseOutcome:
    """Run one cell in this process and turn the run into its outcome.

    This is the forked child's whole job.  It measures its own ``seconds``:
    the scheduler may be busy (e.g. escalating a sibling's kill) when the
    child exits, so a harvest-time measurement in the parent would overstate
    the runtime.  The fork copied the parent's profiling state, so profiling
    is re-derived from the environment (the parent imported
    :mod:`repro.obs.profile` long before ``--profile`` set the variable) and
    the inherited counts are dropped: a cell's ``profile`` holds only its own
    kernel calls.
    """
    obs_profile.maybe_enable_from_env()
    obs_profile.consume_summary()
    start = time.perf_counter()
    try:
        run = run_task(task, params, preloaded)
    except SpaceBudgetExceeded:
        # A busted state budget plays the role of the paper's timeout.
        return CaseOutcome(task, params, seconds=None, timed_out=True)
    except MemoryError:
        error = "out of memory"
    except Exception:
        error = traceback.format_exc(limit=5)
    else:
        return CaseOutcome(
            task=task,
            params=params,
            seconds=time.perf_counter() - start,
            timed_out=False,
            result=run.result,
            build_seconds=run.build_seconds,
            check_seconds=run.check_seconds,
            metrics=run.metrics,
            profile=obs_profile.consume_summary(),
        )
    return CaseOutcome(task, params, seconds=None, timed_out=False, error=error)


def _child(task: str, params: Dict[str, object], pipe, preloaded) -> None:
    # ``preloaded`` arrived by reference across the fork (copy-on-write, no
    # pickling), so the task's session reads the parent's prebuilt spaces.
    try:
        pipe.send(_execute(task, params, preloaded))
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
        validate_timeout(timeout)
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
        timed_out = self._process.is_alive()
        if timed_out:
            self._process.terminate()
            self._process.join(self.term_grace)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()

        outcome: Optional[CaseOutcome] = None
        try:
            if self._pipe.poll():
                outcome = self._pipe.recv()
        except (EOFError, OSError):  # pragma: no cover - torn-down pipe
            pass
        finally:
            self._pipe.close()
        self._process.join()
        self._process.close()

        if timed_out:
            outcome = CaseOutcome(
                self.task, self.params, seconds=None, timed_out=True
            )
        elif outcome is None:
            outcome = CaseOutcome(
                self.task, self.params, seconds=None, timed_out=False,
                error="worker produced no result",
            )
        self._outcome = outcome
        return outcome


def run_case(
    task: str,
    params: Dict[str, object],
    timeout: Optional[float] = None,
    term_grace: float = TERM_GRACE_SECONDS,
    preloaded=None,
) -> CaseOutcome:
    """Run one experiment case in a forked child and wait for its outcome.

    ``timeout=None`` waits with no deadline.  ``preloaded`` is a
    :class:`~repro.runtime.preload.Preloader` whose read-only space
    artefacts the task's session consumes instead of building; the child
    inherits it copy-on-write.
    """
    handle = CaseHandle(
        task, params, timeout=timeout, term_grace=term_grace, preloaded=preloaded
    )
    handle.join(timeout)
    return handle.harvest()
