"""Opt-in kernel profiling with negligible overhead when off.

Hot kernels (bitset block-mask intersections, predecessor images) are
wrapped once at definition time with :func:`kernel`.  The wrapper's off-path is a single global ``None`` check —
no timing, no allocation — so instrumentation can stay on the definitions
permanently.  Profiling activates when:

- the process environment has ``REPRO_PROFILE`` set to a truthy value
  (checked per grid child via :func:`maybe_enable_from_env`, because fork
  inherits the parent's already-imported modules), or
- :func:`enable` is called programmatically (the CLI ``--profile`` flag
  sets the environment variable so forked children inherit it).

Nested kernels double-count by design: each row answers "how much
wall-clock passed inside this kernel".
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "kernel",
    "enable",
    "disable",
    "active",
    "maybe_enable_from_env",
    "consume_summary",
    "summary",
    "render_table",
]

ENV_VAR = "REPRO_PROFILE"

#: Cap on stored per-call durations (median/max stay exact up to this;
#: calls and total seconds are always exact).
MAX_SAMPLES = 100_000


class _ProfileState:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> [calls, total_seconds, samples]
        self._kernels: Dict[str, list] = {}

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._kernels.get(name)
            if entry is None:
                entry = [0, 0.0, []]
                self._kernels[name] = entry
            entry[0] += 1
            entry[1] += seconds
            samples: List[float] = entry[2]
            if len(samples) < MAX_SAMPLES:
                samples.append(seconds)

    def summary(self) -> dict:
        with self._lock:
            kernels = {}
            for name, (calls, total, samples) in sorted(self._kernels.items()):
                ordered = sorted(samples)
                median = ordered[len(ordered) // 2] if ordered else 0.0
                kernels[name] = {
                    "calls": calls,
                    "total_seconds": round(total, 6),
                    "median_seconds": round(median, 9),
                    "max_seconds": round(ordered[-1], 6) if ordered else 0.0,
                }
            return {"kernels": kernels}

    def reset(self) -> None:
        with self._lock:
            self._kernels.clear()


_ACTIVE: Optional[_ProfileState] = None


def kernel(name: str) -> Callable[[Callable], Callable]:
    """Decorator: time calls to a hot kernel when profiling is active."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = _ACTIVE
            if state is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state.record(name, time.perf_counter() - start)

        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


def enable() -> None:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _ProfileState()


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> bool:
    return _ACTIVE is not None


def maybe_enable_from_env() -> bool:
    """Enable profiling when ``REPRO_PROFILE`` is truthy; return activity.

    Called at the top of every forked grid child: the child inherits the
    parent's imported modules, so an import-time check would miss an
    environment variable set after import (e.g. by ``--profile``).
    """
    if os.environ.get(ENV_VAR, "") not in ("", "0"):
        enable()
    return active()


def summary() -> Optional[dict]:
    """Per-kernel summary dict, or None when profiling is inactive."""
    state = _ACTIVE
    return state.summary() if state is not None else None


def consume_summary() -> Optional[dict]:
    """Return the summary and reset counts (profiling stays active)."""
    state = _ACTIVE
    if state is None:
        return None
    result = state.summary()
    state.reset()
    return result


def render_table(profile_summary: dict) -> str:
    """Human-readable per-kernel table from a :func:`summary` dict."""
    rows = [("kernel", "calls", "total_s", "median_s", "max_s")]
    for name, stats in sorted(profile_summary.get("kernels", {}).items()):
        rows.append((
            name,
            str(stats["calls"]),
            f"{stats['total_seconds']:.6f}",
            f"{stats['median_seconds']:.6f}",
            f"{stats['max_seconds']:.6f}",
        ))
    if len(rows) == 1:
        return "profile: no kernel calls recorded"
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
