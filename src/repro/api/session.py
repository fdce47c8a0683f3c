"""The :class:`Session`: memoised epistemic queries over shared artefacts.

The paper's workloads are many small queries (spec checks, per-level
conditions, optimality verdicts) over a handful of model configurations.
Building the artefacts behind one query — the model, the levelled state
space, the satisfaction checker, the specification formulas, a synthesis
fixpoint — dominates its cost, and the loose-kwargs API rebuilt all of them
on every call.  A session keys every artefact by the relevant slice of the
:class:`~repro.api.scenario.Scenario` and keeps them in one bounded cache,
so repeated and batched queries amortise construction across grid cells
and query kinds.

Three properties make one session safe and useful to share across many
concurrent clients (``repro serve`` runs exactly one):

* **Striped build locking.**  Artefact construction is serialised *per
  cache key* (:class:`~repro.api.cache.KeyedLocks`), not behind one global
  lock: two different scenarios build concurrently, while two identical
  cold requests coalesce onto a single build — the second holder finds the
  first holder's value and is counted in ``stats().coalesced``.  The
  session's own cache lock is only ever held for dictionary operations,
  never across a build.

* **Weight-aware eviction.**  The cache
  (:class:`~repro.api.cache.WeightedLRU`) is bounded by estimated resident
  bytes (:func:`~repro.api.cache.estimate_weight`) as well as entry count,
  so one synthesis fixpoint no longer costs the same as a 200-byte
  :class:`~repro.api.results.CheckResult`.  Keys with an in-flight build or
  waiter are pinned and never evicted.

* **A persistent store tier.**  With an
  :class:`~repro.api.artefact_store.ArtefactStore`, result-cache misses
  consult the on-disk store before building and publish what they build, so
  a restarted or second process starts warm.

Queries return the typed results of :mod:`repro.api.results`.  The
session counts in its own :class:`~repro.obs.metrics.MetricsRegistry`
(``Session.metrics``) and nowhere else: :meth:`Session.stats` and
:meth:`Session.build_seconds` are views that sum its series.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.artefact_store import ArtefactStore
from repro.api.build import build_model, literature_protocol
from repro.api.cache import (
    DEFAULT_MAX_WEIGHT_BYTES,
    KeyedLocks,
    WeightedLRU,
    estimate_weight,
)
from repro.api.results import CheckResult, SynthesisResult, result_from_json
from repro.api.scenario import Scenario
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

# Everything a query can build must be imported eagerly, *not* inside the
# build closures: a fresh serving process taking concurrent first requests
# would otherwise run these imports from several threads at once, and the
# import machinery's circular-import deadlock avoidance can hand one thread
# a partially initialised module (seen as 500s on the first cold barrage).
from repro.core import synthesis
from repro.engines import checker_for
from repro.kbp.implementation import verify_sba_implementation
from repro.runtime import plan as runtime_plan
from repro.runtime.preload import Preloader
from repro.spec.eba import eba_spec_formulas
from repro.spec.sba import sba_spec_formulas
from repro.systems.space import build_space

#: The query kinds a session (and the JSON service) understands.
QUERY_OPS = ("check", "temporal", "synthesize")

#: A batch request: (op, scenario).
BatchRequest = Tuple[str, Scenario]


@dataclass(frozen=True)
class SessionStats:
    """An immutable snapshot of the session's per-tier cache statistics.

    ``hits``/``misses`` count in-memory lookups per artefact layer (a miss
    is a completed build); ``coalesced`` counts lookups that waited out
    another thread's identical build and then read its result;
    ``preloaded`` counts artefacts served from the session's
    :class:`~repro.runtime.preload.Preloader` instead of being built (like
    store-tier hits, they are neither cache hits nor misses).  The four
    counts are sums over the session's ``repro_session_lookups_total`` and
    ``repro_session_coalesced_total`` series.  ``store`` is the persistent
    tier's counter snapshot (read-only mapping), or None when the session
    has no store.  Every field is frozen or copied, so a service response
    can hand it out without leaking mutable session state.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    coalesced: int = 0
    preloaded: int = 0
    weight_bytes: int = 0
    max_weight_bytes: int = 0
    store: Optional[Mapping[str, int]] = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "preloaded": self.preloaded,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "weight_bytes": self.weight_bytes,
            "max_weight_bytes": self.max_weight_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.store is not None:
            data["store"] = dict(self.store)
        return data

    @staticmethod
    def aggregate_json(
        snapshots: Iterable[Mapping[str, object]],
    ) -> Dict[str, object]:
        """Merge per-worker ``to_json`` snapshots into one summed view.

        The pre-fork serve front runs one session per worker process;
        ``/stats`` aggregates their labelled snapshots with this helper.
        Integer counters sum (including the nested ``store`` counters —
        each worker's view of its traffic against the one shared store),
        and ``hit_rate`` is recomputed from the summed totals rather than
        averaged, so busy workers weigh what idle ones cannot dilute.
        """
        totals: Dict[str, int] = {}
        store_totals: Dict[str, int] = {}
        saw_store = False
        count = 0
        for snapshot in snapshots:
            count += 1
            for field, value in snapshot.items():
                if field == "store" and isinstance(value, Mapping):
                    saw_store = True
                    for counter, amount in value.items():
                        if isinstance(amount, int):
                            store_totals[counter] = (
                                store_totals.get(counter, 0) + amount
                            )
                elif isinstance(value, int) and not isinstance(value, bool):
                    totals[field] = totals.get(field, 0) + value
        data: Dict[str, object] = dict(totals)
        data["workers"] = count
        lookups = totals.get("hits", 0) + totals.get("misses", 0)
        data["hit_rate"] = (
            round(totals.get("hits", 0) / lookups, 4) if lookups else 0.0
        )
        if saw_store:
            data["store"] = store_totals
        return data


class Session:
    """A bounded memo of per-scenario artefacts behind typed queries.

    ``max_entries`` bounds the number of cached artefacts and
    ``max_weight_bytes`` their estimated total size; the least recently
    used unpinned entry is evicted first.  ``store`` adds the persistent
    tier.  ``preloaded`` seeds the session from a
    :class:`~repro.runtime.preload.Preloader`: model and space lookups that
    miss the cache are served from the preloaded read-only artefacts
    (exact horizon or any prefix of it) instead of building — the mechanism
    behind both ``table --share-spaces`` children and ``serve --preload``
    workers.  ``metrics`` is the session's own registry (lookups by kind
    and outcome, coalesced waits, build and query histograms), the only
    place it counts.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_weight_bytes: int = DEFAULT_MAX_WEIGHT_BYTES,
        store: Optional[ArtefactStore] = None,
        preloaded: Optional["Preloader"] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_weight_bytes < 1:
            raise ValueError(
                f"max_weight_bytes must be >= 1, got {max_weight_bytes}"
            )
        self.max_entries = max_entries
        self.max_weight_bytes = max_weight_bytes
        self._lock = threading.Lock()  # the cache only, never across a build
        self._build_locks = KeyedLocks()
        self._cache = WeightedLRU(max_entries, max_weight_bytes)  # guarded by: _lock
        self._store = store
        self._preloaded = preloaded
        # Labelled by artefact kind (cache-key prefix) and lookup outcome.
        registry = self.metrics = obs_metrics.MetricsRegistry()
        self._m_lookups = registry.counter(
            "repro_session_lookups_total",
            "Session artefact-cache lookups by artefact kind and outcome "
            "(hit, miss, store, preloaded)",
        )
        self._m_coalesced = registry.counter(
            "repro_session_coalesced_total",
            "Cache hits that waited out another thread's identical build",
        )
        self._m_build = registry.histogram(
            "repro_session_build_seconds",
            "Artefact build latency by artefact kind",
        )
        self._m_query = registry.histogram(
            "repro_session_query_seconds",
            "End-to-end session query latency by operation",
        )
        # Pre-bound label children for the per-query paths: a warm cache
        # hit must pay a lock-and-add, not label sorting/stringification.
        self._m_lookup_bound: Dict[Tuple[str, str], object] = {}
        self._m_query_bound = {
            op: self._m_query.labels(op=op)
            for op in ("check", "temporal", "synthesize")
        }

    def _count_lookup(self, kind: str, outcome: str) -> None:
        """Count one cache lookup via a cached pre-bound series.

        The bound-children dict is read without the session lock: a racing
        first call for a (kind, outcome) pair just builds the same bound
        series twice and the later assignment wins — both increments land
        on the same underlying series key.
        """
        bound = self._m_lookup_bound.get((kind, outcome))
        if bound is None:
            bound = self._m_lookups.labels(kind=kind, outcome=outcome)
            self._m_lookup_bound[(kind, outcome)] = bound
        bound.inc()

    # ------------------------------------------------------------------ cache

    def _lookup(self, key: Tuple, coalesced: bool = False):
        """One locked cache probe; returns ``(found, value)`` and counts."""
        with self._lock:
            try:
                value = self._cache.get(key)
            except KeyError:
                return False, None
        self._count_lookup(key[0], "hit")
        if coalesced:
            self._m_coalesced.inc(kind=key[0])
        return True, value

    def _insert(self, key: Tuple, value: object, built: bool) -> None:
        if built:
            self._count_lookup(key[0], "miss")
        with self._lock:
            # Keys with an in-flight build or a coalescing waiter are
            # pinned: evicting them would make the waiter rebuild what was
            # just built.
            self._cache.put(
                key, value, estimate_weight(key, value),
                pinned=self._build_locks.active_keys(),
            )

    def _invoke_build(self, key: Tuple, build: Callable[[], object]) -> object:
        """Run one artefact build (no session lock held).

        The test/benchmark seam: subclasses wrap this to count builds per
        key, inject latency or serialise builds behind one lock (the
        benchmarks' single-lock baseline) without touching the locking
        discipline.
        """
        return build()

    def _build_and_cache(self, key: Tuple, build: Callable[[], object]) -> object:
        kind = key[0]
        start = time.perf_counter()
        with obs_trace.span(f"build.{kind}"):
            value = self._invoke_build(key, build)
        self._m_build.observe(time.perf_counter() - start, kind=kind)
        self._insert(key, value, built=True)
        self._store_put(key, value)
        return value

    def _memo(self, key: Tuple, build: Callable[[], object]) -> object:
        found, value = self._lookup(key)
        if found:
            return value
        with self._build_locks.holding(key):
            # Someone may have finished this exact build while we waited.
            found, value = self._lookup(key, coalesced=True)
            if found:
                return value
            value = self._store_get(key)
            if value is not None:
                self._count_lookup(key[0], "store")
                self._insert(key, value, built=False)
                return value
            return self._build_and_cache(key, build)

    # ------------------------------------------------------------ store tier

    def _store_get(self, key: Tuple):
        """The persistent tier's answer for a result key, or None.

        Only typed results are persisted; every other artefact is rebuilt.
        """
        if self._store is None or key[0] != "result":
            return None
        payload = self._store.get_result(key[1], key[2])
        if payload is None:
            return None
        try:
            return result_from_json(payload)
        except (TypeError, ValueError):  # foreign/stale payload: rebuild
            return None

    def _store_put(self, key: Tuple, value: object) -> None:
        """Publish a freshly built result to the persistent tier."""
        if self._store is not None and key[0] == "result":
            self._store.put_result(key[1], key[2], value.to_json())

    @property
    def store(self) -> Optional[ArtefactStore]:
        """The persistent artefact store behind this session, if any."""
        return self._store

    # ------------------------------------------------------------- statistics

    def stats(self) -> SessionStats:
        """An immutable snapshot of the per-tier statistics.

        The counts are sums over the session's metrics series, coalesced
        waits read first (a wait counts its hit first, so the view never
        shows more waits than hits).  The cache lock is held only to read
        the entry count and weight, so ``/health`` stays responsive during
        long builds; the store counters are a read-only copy.
        """
        coalesced = sum(self._m_coalesced.totals("kind").values())
        lookups = self._m_lookups.totals("outcome")
        with self._lock:
            entries = len(self._cache)
            weight_bytes = self._cache.total_weight
        store = self._store.stats() if self._store is not None else None
        return SessionStats(
            hits=lookups.get("hit", 0),
            misses=lookups.get("miss", 0),
            entries=entries,
            max_entries=self.max_entries,
            coalesced=coalesced,
            preloaded=lookups.get("preloaded", 0),
            weight_bytes=weight_bytes,
            max_weight_bytes=self.max_weight_bytes,
            store=MappingProxyType(store) if store is not None else None,
        )

    def build_seconds(self, kinds: Sequence[str] = ("model", "space")) -> float:
        """Cumulative seconds this session spent building the given artefact
        kinds (cache-key prefixes: ``model``, ``space``, ``checker``,
        ``spec``, ``synthesis``, ``result``).

        The default — the shareable space artefacts — is what the grid
        harness subtracts from a cell's total to split ``build_seconds``
        from ``check_seconds``.  Preload- and store-served artefacts cost no
        build time, which is exactly what makes shared-space speedups
        visible in journals.  Nested builds overlap (a space build's model
        lookup may itself build), so sums across kinds can slightly
        overcount; for model-within-space that overlap is sub-millisecond.
        A view: the sums of the ``repro_session_build_seconds`` series.
        """
        totals = self._m_build.totals("kind")
        return sum(totals.get(kind, 0.0) for kind in kinds)

    def clear(self) -> None:
        """Drop every cached artefact (statistics and the store are kept)."""
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------- artefacts

    def _model_key(self, scenario: Scenario) -> Tuple:
        return runtime_plan.model_key(scenario)

    def _from_preload(self, key: Tuple, fetch: Callable[[], object]):
        """Probe the preloader for an artefact and seed the cache with it.

        The preloaded path mirrors the store tier: a served artefact is
        inserted with ``built=False`` (no miss is counted — nothing was
        built) and counted in ``stats().preloaded``.  ``fetch`` may raise
        :class:`~repro.systems.space.SpaceBudgetExceeded`, which is exactly
        what the equivalent fresh build would have raised.
        """
        if self._preloaded is None:
            return None
        value = fetch()
        if value is None:
            return None
        self._count_lookup(key[0], "preloaded")
        self._insert(key, value, built=False)
        return value

    def model(self, scenario: Scenario):
        """The (memoised) Byzantine-Agreement model for a scenario."""
        key = runtime_plan.model_cache_key(scenario)
        found, value = self._lookup(key)
        if found:
            return value
        value = self._from_preload(
            key, lambda: self._preloaded.model_for(scenario)
        )
        if value is not None:
            return value
        return self._memo(key, lambda: build_model(scenario))

    def _horizon(self, scenario: Scenario) -> int:
        if scenario.rounds is not None:
            return scenario.rounds
        return self.model(scenario).default_horizon()

    def _space(self, scenario: Scenario):
        """(space, protocol, horizon) under the literature protocol.

        The cache key (built by :func:`repro.runtime.plan.space_cache_key`)
        names one space per (model, protocol, horizon, state budget).  A
        session with a :class:`~repro.runtime.preload.Preloader` serves
        cache misses from the preloaded artefacts when they cover the
        scenario's space at this horizon (exactly, or as a prefix of a
        taller build).
        """
        protocol = literature_protocol(scenario)
        horizon = self._horizon(scenario)
        key = runtime_plan.space_cache_key(scenario, protocol.name, horizon)
        found, value = self._lookup(key)
        if not found:
            value = self._from_preload(
                key, lambda: self._preloaded.space_for(scenario, horizon)
            )
            found = value is not None
        if found:
            return value, protocol, horizon
        return self._memo(
            key,
            lambda: build_space(
                self.model(scenario), protocol,
                horizon=horizon, max_states=scenario.max_states,
            ),
        ), protocol, horizon

    def space(self, scenario: Scenario):
        """The (memoised) levelled space under the literature protocol."""
        return self._space(scenario)[0]

    def checker(self, scenario: Scenario):
        """A (memoised) satisfaction checker over the scenario's space."""
        space, protocol, horizon = self._space(scenario)
        key = ("checker",) + self._model_key(scenario) + (
            protocol.name, horizon, scenario.max_states, scenario.engine,
        )
        return self._memo(key, lambda: checker_for(space, scenario.engine))

    def spec_formulas(self, scenario: Scenario) -> Dict[str, object]:
        """The (memoised) specification formulas for the scenario's family."""
        horizon = self._horizon(scenario)
        key = ("spec", scenario.family) + self._model_key(scenario) + (horizon,)

        def build():
            model = self.model(scenario)
            if scenario.family == "sba":
                return sba_spec_formulas(model, horizon)
            return eba_spec_formulas(model, horizon)

        return self._memo(key, build)

    def synthesis_artifact(self, scenario: Scenario):
        """The full (memoised) synthesis result for a scenario.

        Returns the rich :class:`~repro.core.synthesis.SBASynthesisResult`
        or :class:`~repro.core.synthesis.EBASynthesisResult` — condition
        tables, rule and space included.  The ``optimal_protocol`` flag is
        irrelevant to synthesis and is normalised out of the cache key.
        """
        scenario = replace(scenario, optimal_protocol=False)
        key = ("synthesis", scenario.canonical_json())

        def build():
            model = self.model(scenario)
            # Late attribute lookup keeps the module's test seam intact
            # (synthesis.synthesize_* can still be monkeypatched).
            synthesize = (
                synthesis.synthesize_sba if scenario.family == "sba"
                else synthesis.synthesize_eba
            )
            return synthesize(
                model,
                horizon=scenario.rounds,
                max_states=scenario.max_states,
                engine=scenario.engine,
            )

        return self._memo(key, build)

    # --------------------------------------------------------------- queries

    def check(self, scenario: Scenario) -> CheckResult:
        """Model check the scenario's literature protocol.

        For SBA scenarios this is the paper's full experiment: the temporal
        specification formulas plus the knowledge-optimality comparison of
        the protocol's decisions against ``B^N_i CB_N ∃v``.  For EBA
        scenarios it checks the EBA specification.
        """
        start = time.perf_counter()
        try:
            task = scenario.check_task()
            key = ("result", "check", scenario.canonical_json())
            return self._memo(key, lambda: self._run_check(task, scenario))
        finally:
            self._m_query_bound["check"].observe(time.perf_counter() - start)

    def check_temporal(self, scenario: Scenario) -> CheckResult:
        """Model check only the purely temporal SBA specification.

        This is the paper's concluding-remark ablation: no knowledge or
        common-belief operators, so it scales considerably further.  Only
        SBA scenarios have a temporal-only task.  Unlike the harness task
        (which always runs the model's default horizon), a scenario's
        ``rounds`` override is honoured here, as it is in :meth:`check`.
        """
        if scenario.family != "sba":
            raise ValueError(
                "temporal-only checking is defined for SBA exchanges only "
                f"(got {scenario.exchange!r})"
            )
        start = time.perf_counter()
        try:
            scenario = replace(scenario, optimal_protocol=False)
            key = ("result", "temporal", scenario.canonical_json())
            return self._memo(
                key, lambda: self._run_check("sba-temporal-only", scenario)
            )
        finally:
            self._m_query_bound["temporal"].observe(time.perf_counter() - start)

    def synthesize(self, scenario: Scenario) -> SynthesisResult:
        """Synthesize the scenario's knowledge-based program implementation."""
        start = time.perf_counter()
        try:
            scenario = replace(scenario, optimal_protocol=False)
            key = ("result", "synthesize", scenario.canonical_json())
            return self._memo(key, lambda: self._summarise_synthesis(scenario))
        finally:
            self._m_query_bound["synthesize"].observe(time.perf_counter() - start)

    def query(self, op: str, scenario: Scenario):
        """Dispatch one query by operation name (see :data:`QUERY_OPS`)."""
        if op == "check":
            return self.check(scenario)
        if op == "temporal":
            return self.check_temporal(scenario)
        if op == "synthesize":
            return self.synthesize(scenario)
        raise ValueError(f"unknown query op {op!r} (expected one of {QUERY_OPS})")

    def batch(
        self, requests: Iterable[Union[BatchRequest, Sequence]]
    ) -> List[Union[CheckResult, SynthesisResult]]:
        """Run a sequence of ``(op, scenario)`` queries on the shared cache.

        The whole point of batching: every query in the batch sees the
        artefacts its predecessors built, so a grid of related scenarios
        amortises space construction the way :func:`run_table`'s forked
        children cannot.

        A query that raises propagates immediately (later requests do not
        run), but never poisons the session: completed queries stay cached,
        the failing key's build lock is released and nothing partial is
        inserted, so retrying the same batch resumes where it failed.
        """
        results = []
        for op, scenario in requests:
            results.append(self.query(op, scenario))
        return results

    # -------------------------------------------------------------- internals

    def _run_check(self, task: str, scenario: Scenario) -> CheckResult:
        model = self.model(scenario)
        space, protocol, horizon = self._space(scenario)
        checker = self.checker(scenario)
        spec_results = {
            name: checker.holds_initially(formula)
            for name, formula in self.spec_formulas(scenario).items()
        }
        result = CheckResult(
            task=task,
            engine=scenario.engine,
            exchange=scenario.exchange,
            failures=scenario.failures,
            num_agents=scenario.num_agents,
            max_faulty=scenario.max_faulty,
            states=space.num_states(),
            spec=spec_results,
            rounds=horizon,
            protocol=protocol.name,
        )
        if task != "sba-model-check":
            return result
        report = verify_sba_implementation(
            model, protocol, space=space, engine=scenario.engine, checker=checker
        )
        return replace(
            result,
            implementation_ok=report.ok,
            optimal=report.is_optimal,
            sound=report.is_sound,
            late_points=len(report.late_mismatches()),
        )

    def _summarise_synthesis(self, scenario: Scenario) -> SynthesisResult:
        artifact = self.synthesis_artifact(scenario)
        model = self.model(scenario)
        base = dict(
            task=scenario.synthesis_task(),
            engine=scenario.engine,
            exchange=scenario.exchange,
            failures=scenario.failures,
            num_agents=scenario.num_agents,
            max_faulty=scenario.max_faulty,
            states=artifact.space.num_states(),
        )
        if scenario.family == "sba":
            earliest = None
            for time in range(artifact.space.horizon + 1):
                if any(
                    not artifact.conditions.get(agent, time, value).always_false()
                    for agent in model.agents()
                    for value in model.values()
                ):
                    earliest = time
                    break
            return SynthesisResult(**base, earliest_condition_time=earliest)
        return SynthesisResult(
            **base, iterations=artifact.iterations, converged=artifact.converged
        )
