"""A SIGALRM-based wall-clock guard for work that cannot be forked.

The grid runner enforces per-cell budgets by forking and killing; the
scheduler's own parent-side space preloads cannot be forked (their point is
that the cells fork from them) and still need a budget.
:func:`wall_clock_limit` bounds them with an interval timer that raises
:class:`WallClockExceeded` in the guarded frame.

Signals only deliver to the main thread, so off the main thread (or on
platforms without ``SIGALRM``) the guard degrades to a no-op with an explicit
:class:`RuntimeWarning` — a silent no-op is exactly the bug this module
exists to fix.  Best-effort by nature: code stuck inside one long C-level
operation (a huge arbitrary-precision multiply) reaches no bytecode boundary
where the raise can happen; the forked runner remains the hard guarantee.
"""

from __future__ import annotations

import signal
import threading
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional


class WallClockExceeded(Exception):
    """The guarded block ran past its wall-clock budget."""


def _signals_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def wall_clock_limit(
    seconds: Optional[float], label: str = "guarded block"
) -> Iterator[bool]:
    """Raise :class:`WallClockExceeded` if the block outlives ``seconds``.

    ``seconds=None`` (or non-positive) disables the guard.  Yields whether
    the budget is actually enforced, so callers can fall back to a stricter
    strategy when it is not.  Not reentrant: nesting would cancel the outer
    timer when the inner block exits.
    """
    if seconds is None or seconds <= 0:
        yield False
        return
    if not _signals_usable():
        warnings.warn(
            f"wall-clock budget for {label} is not enforced: SIGALRM is only "
            "deliverable on the main thread of a POSIX process",
            RuntimeWarning,
            stacklevel=3,
        )
        yield False
        return

    def _expired(signum, frame):  # noqa: ARG001 - signal handler shape
        raise WallClockExceeded(
            f"{label} exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
