"""Observability substrate: metrics, tracing, profiling, and logging.

The package is deliberately dependency-free (stdlib only) and must never
import from ``repro.api``/``repro.core``/``repro.harness`` — those layers
import *us* so they can instrument themselves.

- :mod:`repro.obs.metrics` — thread-safe metrics registries (counters,
  gauges, fixed-bucket histograms) with Prometheus-style text exposition
  and JSON snapshots that merge across pre-fork workers.  There is no
  process-wide registry: each session, store and server owns one, and its
  statistics are views over it.
- :mod:`repro.obs.trace` — request-scoped trace IDs (contextvar-propagated,
  honoured from ``X-Repro-Trace-Id``) with nested spans emitted as
  structured JSON log records.
- :mod:`repro.obs.profile` — opt-in kernel profiling (``REPRO_PROFILE=1`` /
  ``--profile``) with negligible overhead when off.
- :mod:`repro.obs.log` — stdlib logging setup shared by the CLI and the
  service (``--log-format text|json``).
"""

from repro.obs import log, metrics, profile, trace

__all__ = ["log", "metrics", "profile", "trace"]
