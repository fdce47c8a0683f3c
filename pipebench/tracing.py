"""In-memory spans around calls into the program's layers, and their report.

Tracing is installed only in ``--trace 1`` runs: :func:`install` replaces
public functions and methods of the program's modules with thin wrappers
that record a span per call, and :meth:`Patches.undo` puts the originals
back.
Nothing under ``src/`` is edited; the wrappers live in this file.

A span is ``[id, parent, root, name, layer, start, end]``.  ``root`` is the
cell or request the span belongs to; spans opened on another thread (the
HTTP handler) join their request's tree through :meth:`Tracer.adopt`.  A
layer's number is its *self time*: the span's duration, clipped to its
parent, minus the part its children cover.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in report order; ``transport`` is client time outside the server,
#: ``bench`` is the benchmark's own code inside a cell.
LAYERS = ("systems", "checker", "kbp", "synthesis", "minimize", "session",
          "service", "results", "store", "obs", "transport", "bench")

ID, PARENT, ROOT, NAME, LAYER, START, END = range(7)


class Tracer:
    """Collects spans and counters; thread-safe for appends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.walls: Dict[str, float] = {}
        self.classes: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._roots: Dict[str, Tuple[int, str]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._selfs: Optional[Dict[int, float]] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, root: Optional[str] = None,
             cls: Optional[str] = None) -> Iterator[list]:
        """Record one span; ``root`` starts a new tree (a cell or request)."""
        stack = self._stack()
        parent = None
        if root is None and stack:
            parent, root = stack[-1]
        record = [next(self._ids), parent, root, name, layer,
                  time.perf_counter(), 0.0]
        if parent is None and root is not None:
            self._roots[root] = (record[ID], root)
            self.classes[root] = cls or name
        stack.append((record[ID], root))
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def adopt(self, root: Optional[str]) -> Iterator[None]:
        """Parent this thread's next spans to another thread's root span."""
        entry = self._roots.get(root) if root else None
        stack = self._stack()
        if entry is not None:
            stack.append(entry)
        try:
            yield
        finally:
            if entry is not None:
                stack.pop()

    def note_wall(self, root: str, seconds: float) -> None:
        """The root's wall time as measured around it, outside the spans."""
        self.walls[root] = seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    # ---------------------------------------------------------------- report

    def self_times(self) -> Dict[int, float]:
        """Self time of every span that belongs to a root, by span id.

        Computed once, after tracing has finished.
        """
        if self._selfs is not None:
            return self._selfs
        children: Dict[Optional[int], List[list]] = {}
        for record in self.spans:
            children.setdefault(record[PARENT], []).append(record)
        result: Dict[int, float] = {}

        def visit(record: list, low: float, high: float) -> None:
            start, end = max(record[START], low), min(record[END], high)
            if end < start:
                end = start
            covered = 0.0
            cursor = start
            for child in sorted(children.get(record[ID], ()), key=lambda c: c[START]):
                visit(child, start, end)
                c_start, c_end = max(child[START], cursor), min(child[END], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[record[ID]] = (end - start) - covered

        for record in children.get(None, ()):
            if record[ROOT] is not None:
                visit(record, record[START], record[END])
        self._selfs = result
        return result

    def ancestors(self) -> Dict[int, List[str]]:
        """Names of each span's ancestors, nearest first."""
        by_id = {record[ID]: record for record in self.spans}
        names: Dict[int, List[str]] = {}
        for record in self.spans:
            chain, parent = [], record[PARENT]
            while parent is not None and parent in by_id:
                chain.append(by_id[parent][NAME])
                parent = by_id[parent][PARENT]
            names[record[ID]] = chain
        return names

    def report(self) -> Dict[str, object]:
        """Per-layer self time and share, and the per-class sum check."""
        selfs = self.self_times()
        layer_self = {layer: 0.0 for layer in LAYERS}
        class_self: Dict[str, float] = {}
        for record in self.spans:
            if record[ID] not in selfs:
                continue
            layer_self[record[LAYER]] = layer_self.get(record[LAYER], 0.0) + selfs[record[ID]]
            cls = self.classes.get(record[ROOT], "?")
            class_self[cls] = class_self.get(cls, 0.0) + selfs[record[ID]]
        class_wall: Dict[str, float] = {}
        for root, seconds in self.walls.items():
            cls = self.classes.get(root, "?")
            class_wall[cls] = class_wall.get(cls, 0.0) + seconds
        wall = sum(class_wall.values())
        classes = {}
        for cls in sorted(set(class_wall) | set(class_self)):
            measured = class_wall.get(cls, 0.0)
            summed = class_self.get(cls, 0.0)
            error = abs(summed - measured) / measured if measured > 0 else 1.0
            classes[cls] = {"wall_s": measured, "self_sum_s": summed, "error": error}
        return {
            "wall_s": wall,
            "layers": {
                layer: {"self_s": seconds, "share": seconds / wall if wall else 0.0}
                for layer, seconds in layer_self.items()
            },
            "classes": classes,
            "max_error": max((c["error"] for c in classes.values()), default=0.0),
            "spans": len(self.spans),
        }

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span with this name."""
        return [record[END] - record[START] for record in self.spans
                if record[NAME] == name]

    def self_total(self, names: Tuple[str, ...], under: Optional[str] = None) -> float:
        """Summed self time of spans with these names (optionally below a span name)."""
        selfs = self.self_times()
        chains = self.ancestors() if under else {}
        total = 0.0
        for record in self.spans:
            if record[NAME] in names and record[ID] in selfs:
                if under is None or under in chains.get(record[ID], ()):
                    total += selfs[record[ID]]
        return total

    def dump(self) -> Dict[str, object]:
        return {"spans": self.spans, "walls": self.walls,
                "classes": self.classes, "counts": self.counts}


def layer_metrics(tracer: Tracer, report: dict) -> dict:
    """Per-layer numbers derivable from the spans and counters of a traced run."""
    counts = tracer.counts

    def mean_ms(name: str) -> float:
        values = tracer.durations(name)
        return 1000 * statistics.fmean(values) if values else 0.0

    extended = counts.get("systems.extended_states", 0)
    metrics = {
        "systems.extend_s": tracer.self_total(("extend",)),
        "systems.actions_s": tracer.self_total(("joint_actions",)),
        "systems.states": counts.get("systems.states", 0),
        "systems.successors_per_state":
            counts.get("systems.successors", 0) / extended if extended else 0.0,
        "checker.spec_s": tracer.self_total(("holds_initially",)),
        "checker.formulas": len(tracer.durations("holds_initially")),
        "kbp.verify_s": tracer.self_total(("verify",)),
        "kbp.points": counts.get("kbp.points", 0),
        "synthesis.s": tracer.self_total(("synthesize",)),
        "synthesis.extend_s": tracer.self_total(("extend",), under="synthesize"),
        "synthesis.eba_passes": counts.get("synthesis.eba_passes", 0),
        "minimize.describe_s": tracer.self_total(("describe", "truth_table")),
        "minimize.qm_s": tracer.self_total(("qm",)),
        "minimize.espresso_s": tracer.self_total(("espresso",)),
        "minimize.conditions": counts.get("minimize.conditions", 0),
        "minimize.qm_conditions": counts.get("minimize.qm_conditions", 0),
        "results.to_json_ms": mean_ms("to_json"),
        "store.put_ms": mean_ms("store_put"),
        "store.get_ms": mean_ms("store_get"),
        "service.publish_stats_ms": mean_ms("publish_stats"),
        "obs.metrics_ms": mean_ms("metrics_exposition"),
        "trace.sum_error_max": report["max_error"],
        "trace.spans": report["spans"],
    }
    for layer, entry in report["layers"].items():
        metrics[f"self_s.{layer}"] = entry["self_s"]
        metrics[f"share.{layer}"] = entry["share"]
    return metrics


class Patches:
    """Install wrappers over module and class attributes; undo them later."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            own = attr in owner.__dict__
            raw = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        else:
            own, raw = True, getattr(owner, attr)
        self._saved.append((owner, attr, raw, own))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def install(tracer: Tracer) -> Patches:
    """Wrap the program's layer entry points with spans and counters."""
    from repro.api import artefact_store, results, service
    from repro.api import session as api_session
    from repro.api import build as api_build
    from repro.core import checker as core_checker
    from repro.core import minimize, predicates, synthesis
    from repro import engines
    from repro.kbp import implementation as kbp
    from repro.spec import eba as spec_eba
    from repro.spec import sba as spec_sba
    from repro.systems import model as systems_model
    from repro.systems import space as systems_space

    patches = Patches()

    def spanned(name: str, layer: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(fn, name, layer)

    # Functions: patched where they are defined and where Session imported them.
    for owners, attr, name, layer in (
        ((api_build, api_session), "build_model", "build_model", "systems"),
        ((systems_space, api_session), "build_space", "build_space", "systems"),
        ((systems_space,), "joint_actions_for_level", "joint_actions", "systems"),
        ((engines, api_session), "checker_for", "checker_for", "checker"),
        ((spec_sba, api_session), "sba_spec_formulas", "spec_formulas", "checker"),
        ((spec_eba, api_session), "eba_spec_formulas", "spec_formulas", "checker"),
        ((synthesis,), "synthesize_sba", "synthesize", "synthesis"),
        ((synthesis,), "synthesize_eba", "synthesize", "synthesis"),
        ((minimize,), "espresso_minimise", "espresso", "minimize"),
        ((predicates.ConditionTable,), "describe", "describe", "minimize"),
        ((core_checker.ModelChecker,), "holds_initially", "holds_initially", "checker"),
        ((results.CheckResult, results.SynthesisResult), "to_json", "to_json", "results"),
        ((artefact_store.ArtefactStore,), "get_result", "store_get", "store"),
        ((artefact_store.ArtefactStore,), "put_result", "store_put", "store"),
        ((service.ReproServer,), "publish_stats", "publish_stats", "service"),
        ((service.ReproServer,), "metrics_exposition", "metrics_exposition", "obs"),
        ((api_session.Session,), "check", "session.check", "session"),
        ((api_session.Session,), "check_temporal", "session.temporal", "session"),
        ((api_session.Session,), "synthesize", "session.synthesize", "session"),
        ((api_session.Session,), "batch", "session.batch", "session"),
    ):
        for owner in owners:
            patches.replace(owner, attr, spanned(name, layer))

    def counted_minimise(fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            tracer.count("minimize.conditions")
            with tracer.span("truth_table", "minimize"):
                return fn(*args, **kwargs)
        return traced

    patches.replace(predicates, "truth_table_minimise", counted_minimise)

    def counted_qm(fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            tracer.count("minimize.qm_conditions")
            with tracer.span("qm", "minimize"):
                return fn(*args, **kwargs)
        return traced

    patches.replace(minimize, "minimise", counted_qm)

    def counted_verify(fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with tracer.span("verify", "kbp"):
                report = fn(*args, **kwargs)
            tracer.count("kbp.points", report.points_checked)
            return report
        return traced

    for owner in (kbp, api_session):
        patches.replace(owner, "verify_sba_implementation", counted_verify)

    def counted_initial(fn: Callable) -> Callable:
        def traced(cls, *args, **kwargs):
            with tracer.span("initial", "systems"):
                space = fn(cls, *args, **kwargs)
            tracer.count("systems.states", len(space.levels[0]))
            return space
        return traced

    patches.replace(systems_space.LevelledSpace, "initial", counted_initial)

    def counted_extend(fn: Callable) -> Callable:
        def traced(self):
            with tracer.span("extend", "systems"):
                level = fn(self)
            tracer.count("systems.states", len(self.levels[level]))
            tracer.count("systems.extended_states", len(self.levels[level]))
            return level
        return traced

    patches.replace(systems_space.LevelledSpace, "extend", counted_extend)

    def counted_successors(fn: Callable) -> Callable:
        def traced(self, state, joint_action, time):
            successors = list(fn(self, state, joint_action, time))
            tracer.count("systems.successors", len(successors))
            return successors
        return traced

    patches.replace(systems_model.BAModel, "successors", counted_successors)

    def server_side(fn: Callable) -> Callable:
        def traced(handler):
            with tracer.adopt(handler.headers.get("X-Repro-Trace-Id")):
                with tracer.span("http", "service"):
                    return fn(handler)
        return traced

    for attr in ("do_GET", "do_POST"):
        patches.replace(service.ReproRequestHandler, attr, server_side)
    return patches
