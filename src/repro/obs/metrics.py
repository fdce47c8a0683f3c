"""Thread-safe metrics registries with Prometheus exposition.

The registry is deliberately small: counters, gauges, and fixed-bucket
histograms, each supporting dynamic label sets.  Metrics are get-or-create
(`registry.counter(name, ...)` returns the existing metric on repeat
calls), so an owner can declare the series it needs without a central
manifest.

There is no process-wide registry: each object that counts (a
``Session``, an ``ArtefactStore``, a ``ReproServer``) owns a
:class:`MetricsRegistry` and counts there only; its statistics are views
that sum those series (``totals``), so two owners in one process never
see each other's counts.

Two output forms:

- :meth:`MetricsRegistry.exposition` — Prometheus text format
  (``text/plain; version=0.0.4``) for ``GET /metrics``.
- :meth:`MetricsRegistry.snapshot` — a JSON-able dict.  Pre-fork workers
  publish their snapshot into the shared ``stats/`` directory and any
  worker renders the whole front via :func:`render_exposition`, which
  attaches a ``worker`` label per source so per-worker series stay
  distinguishable (aggregate = sum over the label, as in any Prometheus
  setup).

Hot call sites pre-bind their label set (``metric.labels(...)``) and pay
one ``list.append`` per event — atomic under the GIL, folded into the
series lazily at read time; cold sites use the locked keyword forms.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_exposition",
    "CONTENT_TYPE",
]

#: Content type of the Prometheus text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: minute-scale cold builds.  The implicit final bucket is +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: Iterable[Tuple[str, str]]) -> str:
    rendered = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in items)
    return "{" + rendered + "}" if rendered else ""


class _Metric:
    """Base class: one named metric holding per-labelset series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, object] = {}  # guarded by: _lock
        # Per-series append-only event buffers fed by bound children; folded
        # into _series lazily (reads, or overflow past _FOLD_THRESHOLD).
        # The dict itself is guarded; the buffered lists are appended to
        # lock-free and drained under the lock (see _drain).
        self._pending: Dict[LabelKey, List[float]] = {}  # guarded by: _lock

    def _pending_buffer(self, key: LabelKey) -> List[float]:
        with self._lock:
            return self._pending.setdefault(key, [])

    def _drain(self, buf: List[float]) -> List[float]:
        # Appenders don't hold the lock, so take a point-in-time copy and
        # delete exactly that prefix; an append racing in between survives
        # for the next fold.  Both the slice and the del are single ops on
        # a builtin list, atomic under the GIL.
        items = buf[:]
        del buf[:len(items)]
        return items

    def _fold_locked(self) -> None:
        """Fold pending event buffers into series; caller holds the lock."""

    def _fold(self) -> None:
        with self._lock:
            self._fold_locked()

    def _snapshot_series(self) -> List[dict]:
        raise NotImplementedError

    def snapshot(self) -> dict:
        with self._lock:
            self._fold_locked()
            data = {"type": self.kind, "help": self.help,
                    "series": self._snapshot_series()}
        return data

    @staticmethod
    def _total(value) -> float:
        """What one series contributes to :meth:`totals`."""
        return value

    def totals(self, label: str) -> Dict[str, float]:
        """Fold pending events and sum the series per value of ``label``.

        The cheap read behind the owners' statistics views: no snapshot
        dicts are built.  Series without the label are left out.
        """
        totals: Dict[str, float] = {}
        total = self._total
        with self._lock:
            self._fold_locked()
            for key, value in self._series.items():
                for name, label_value in key:
                    if name == label:
                        totals[label_value] = (
                            totals.get(label_value, 0) + total(value))
                        break
        return totals


#: Pending-event buffers are folded into their series when they grow past
#: this; bounds memory between scrapes on hot unscraped processes.
_FOLD_THRESHOLD = 4096


class _BoundCounter:
    """A counter series with its label key precomputed.

    Hot call sites (cache hits, per-request counts) bind once; each event
    is then one ``list.append`` into a per-series pending buffer — atomic
    under the GIL, no lock, no label sorting.  Buffers are folded into the
    series under the metric lock at snapshot time (or when they grow past
    :data:`_FOLD_THRESHOLD`), so exposition never sees a partial event and
    memory stays bounded.
    """

    __slots__ = ("_metric", "_buf")

    def __init__(self, metric: "_Metric", key: LabelKey) -> None:
        self._metric = metric
        self._buf = metric._pending_buffer(key)

    def inc(self, amount: float = 1) -> None:
        buf = self._buf
        buf.append(amount)
        if len(buf) >= _FOLD_THRESHOLD:
            self._metric._fold()


class _BoundHistogram:
    """A histogram series with its label key precomputed (see _BoundCounter).

    Observations append raw values; even the bucket search happens at fold
    time, off the per-event path.
    """

    __slots__ = ("_metric", "_buf")

    def __init__(self, metric: "Histogram", key: LabelKey) -> None:
        self._metric = metric
        self._buf = metric._pending_buffer(key)

    def observe(self, value: float) -> None:
        buf = self._buf
        buf.append(value)
        if len(buf) >= _FOLD_THRESHOLD:
            self._metric._fold()


class Counter(_Metric):
    """Monotonically increasing counter with optional labels."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def labels(self, **labels: object) -> _BoundCounter:
        """Pre-bind a label set for append-only increments."""
        return _BoundCounter(self, _label_key(labels))

    def _fold_locked(self) -> None:
        for key, buf in self._pending.items():
            if buf:
                self._series[key] = (
                    self._series.get(key, 0) + sum(self._drain(buf)))

    def _snapshot_series(self) -> List[dict]:
        return [{"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())]


class Gauge(_Metric):
    """Last-value gauge with optional labels."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    _snapshot_series = Counter._snapshot_series


class Histogram(_Metric):
    """Fixed-bucket histogram; buckets are inclusive upper bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help, lock)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))

    def observe(self, value: float, **labels: object) -> None:
        self._observe_key(_label_key(labels), value)

    def labels(self, **labels: object) -> _BoundHistogram:
        """Pre-bind a label set for append-only observations."""
        return _BoundHistogram(self, _label_key(labels))

    def _observe_key(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._record_locked(key, (value,))

    def _record_locked(self, key: LabelKey, values: Iterable[float]) -> None:
        series = self._series.get(key)
        if series is None:
            # [per-bucket counts (+Inf last), sum, count]
            series = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = series
        counts = series[0]
        buckets = self.buckets
        for value in values:
            counts[bisect_left(buckets, value)] += 1
            series[1] += value
            series[2] += 1

    def _fold_locked(self) -> None:
        for key, buf in self._pending.items():
            if buf:
                self._record_locked(key, self._drain(buf))

    def _snapshot_series(self) -> List[dict]:
        return [{"labels": dict(key), "counts": list(counts),
                 "sum": total, "count": count}
                for key, (counts, total, count) in sorted(self._series.items())]

    @staticmethod
    def _total(value) -> float:
        return value[1]  # the sum of the observed values

    def snapshot(self) -> dict:
        data = super().snapshot()
        data["buckets"] = list(self.buckets)
        return data


class MetricsRegistry:
    """Thread-safe collection of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}  # guarded by: _lock

    def _get_or_create(self, name: str, factory) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(
            name, lambda: Counter(name, help, self._lock))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(
            name, lambda: Gauge(name, help, self._lock))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, help, self._lock, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def exposition(self) -> str:
        return render_exposition([(None, self.snapshot())])


def render_exposition(
    snapshots: Sequence[Tuple[Optional[str], Mapping[str, Mapping]]],
) -> str:
    """Render Prometheus text from (worker_label, snapshot) pairs.

    With a single ``None``-labelled snapshot the output is the plain
    process exposition; with labelled snapshots every series additionally
    carries a ``worker`` label so one response covers the whole pre-fork
    front.
    """
    merged: Dict[str, dict] = {}
    per_metric: Dict[str, List[Tuple[Optional[str], Mapping]]] = {}
    for worker, snapshot in snapshots:
        for name, data in snapshot.items():
            merged.setdefault(name, {"type": data.get("type", "untyped"),
                                     "help": data.get("help", ""),
                                     "buckets": data.get("buckets")})
            for series in data.get("series", ()):
                per_metric.setdefault(name, []).append((worker, series))

    lines: List[str] = []
    for name in sorted(merged):
        meta = merged[name]
        if meta["help"]:
            lines.append(f"# HELP {name} {meta['help']}")
        lines.append(f"# TYPE {name} {meta['type']}")
        entries = per_metric.get(name, [])

        def _labels(worker: Optional[str], series: Mapping,
                    extra: Sequence[Tuple[str, str]] = ()) -> str:
            items = sorted(series.get("labels", {}).items())
            if worker is not None:
                items.append(("worker", worker))
            return _render_labels(list(items) + list(extra))

        entries.sort(key=lambda entry: ((entry[0] or ""),
                                        sorted(entry[1].get("labels", {}).items())))
        if meta["type"] == "histogram":
            bounds = list(meta["buckets"] or []) + [float("inf")]
            for worker, series in entries:
                cumulative = 0
                for bound, count in zip(bounds, series["counts"]):
                    cumulative += count
                    labels = _labels(worker, series,
                                     [("le", _format_bound(bound))])
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _labels(worker, series)
                lines.append(f"{name}_sum{labels} {_format_value(series['sum'])}")
                lines.append(f"{name}_count{labels} {series['count']}")
        else:
            for worker, series in entries:
                labels = _labels(worker, series)
                lines.append(f"{name}{labels} {_format_value(series['value'])}")
    return "\n".join(lines) + "\n" if lines else ""
