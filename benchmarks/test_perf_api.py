"""Cold vs warm repeated queries through one :class:`repro.api.Session`.

The paper's workloads are many small epistemic queries over a handful of
configurations — exactly what the session cache is for.  This benchmark runs
the same repeated check/synthesize mix twice:

* **cold** — a fresh ``Session`` per query, the pre-redesign behaviour
  (every call rebuilds model, space, checker and formulas from scratch);
* **warm** — one shared ``Session``, the facade behaviour (repeats are
  result-cache hits; related queries share artefacts).

It asserts the warm sweep is at least :data:`SPEEDUP_FLOOR` times faster and
records the honest numbers — cache hit/miss counts included — in
``BENCH_api.json``.

Conventions follow ``BENCH_harness.json``: the file is only (re)written when
missing or when ``REPRO_BENCH_RECORD`` is set, and ``REPRO_BENCH_SMOKE=1``
(the CI bench-smoke job) shrinks the workload and drops the assertion and
the recording.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import List, Tuple

from repro.api import Scenario, Session

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_api.json"

#: Acceptance floor for the warm sweep (the issue asks for >= 3x).
SPEEDUP_FLOOR = 3.0

#: Acceptance floor for the striped session over the single-lock baseline on
#: the 4-thread all-cold diverse-traffic barrage.
CONCURRENT_SPEEDUP_FLOOR = 2.0

#: Injected per-result-build latency for the concurrency benchmark (seconds).
#: CPython's GIL serialises the pure-Python model/space/checker compute no
#: matter how the locks are arranged, so lock architecture is only measurable
#: when builds spend time off the GIL (as real deployments do in I/O, BDD
#: libraries or subprocesses).  Both contenders get the *same* injected
#: ``time.sleep`` through the documented ``Session._invoke_build`` seam; the
#: benchmark therefore measures exactly what changed in this redesign — one
#: global build lock vs per-key striping — not compute throughput.
BUILD_LATENCY_SECONDS = 0.02 if SMOKE else 0.15

#: How many times the query mix repeats (the serving workload shape:
#: the same handful of scenarios queried over and over).
REPEATS = 2 if SMOKE else 5

_RECORDING = not SMOKE and (
    bool(os.environ.get("REPRO_BENCH_RECORD")) or not BENCH_PATH.exists()
)


def _query_mix() -> List[Tuple[str, Scenario]]:
    """One round of the repeated check/synthesize mix."""
    if SMOKE:
        scenarios = [
            Scenario(exchange="floodset", num_agents=2, max_faulty=1),
            Scenario(exchange="emin", num_agents=2, max_faulty=1),
        ]
    else:
        scenarios = [
            Scenario(exchange="floodset", num_agents=3, max_faulty=1),
            Scenario(exchange="floodset", num_agents=3, max_faulty=2),
            Scenario(exchange="count", num_agents=3, max_faulty=2),
            Scenario(exchange="emin", num_agents=3, max_faulty=1),
        ]
    mix: List[Tuple[str, Scenario]] = []
    for scenario in scenarios:
        mix.append(("check", scenario))
        mix.append(("synthesize", scenario))
        if scenario.family == "sba":
            mix.append(("temporal", scenario))
    return mix


def _sweep_cold(mix: List[Tuple[str, Scenario]]) -> Tuple[float, list]:
    start = time.perf_counter()
    results = [Session().query(op, scenario) for op, scenario in mix]
    return time.perf_counter() - start, results


def _sweep_warm(
    session: Session, mix: List[Tuple[str, Scenario]]
) -> Tuple[float, list]:
    start = time.perf_counter()
    results = session.batch(mix)
    return time.perf_counter() - start, results


def test_warm_session_amortises_repeated_queries():
    """One warm session answers the repeated mix >= 3x faster than cold."""
    mix = _query_mix() * REPEATS

    cold_seconds, cold_results = _sweep_cold(mix)

    session = Session()
    warm_seconds, warm_results = _sweep_warm(session, mix)
    stats = session.stats()

    # Warm and cold must agree query for query before timing means anything.
    assert [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold_results]
    # The repeats were answered from the session cache.
    assert stats.hits >= len(mix) - len(_query_mix())

    speedup = cold_seconds / max(warm_seconds, 1e-9)

    if _RECORDING:
        existing: dict = {}
        if BENCH_PATH.exists():
            try:
                existing = json.loads(BENCH_PATH.read_text())
            except ValueError:
                existing = {}
        workloads = existing.get("workloads", {})
        workloads["repeated_check_synthesize_mix"] = {
            "workload": "repeated check/synthesize/temporal mix through "
                        "one Session",
            "scenarios": sorted({
                f"{s.exchange} n={s.num_agents} t={s.max_faulty}"
                for _, s in mix
            }),
            "queries": len(mix),
            "repeats": REPEATS,
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "speedup": round(speedup, 2),
            "session_cache": stats.to_json(),
        }
        BENCH_PATH.write_text(
            json.dumps(
                {
                    "benchmark": "session facade serving benchmarks: warm "
                    "cache amortisation, striped-lock concurrency, coalescing",
                    "workloads": workloads,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )

    if SMOKE:
        return
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm session answered {len(mix)} queries only {speedup:.2f}x faster "
        f"({cold_seconds:.2f}s -> {warm_seconds:.2f}s; floor {SPEEDUP_FLOOR}x)"
    )


class _LatencySession(Session):
    """A session whose result builds carry off-GIL latency (see above)."""

    def _invoke_build(self, key, build):
        if key[0] == "result":
            time.sleep(BUILD_LATENCY_SECONDS)
        return super()._invoke_build(key, build)


class _SingleLockSession(_LatencySession):
    """The pre-striping baseline: every build under one re-entrant lock
    (a result build nests its model and space builds)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._single_lock = threading.RLock()

    def _invoke_build(self, key, build):
        with self._single_lock:
            return super()._invoke_build(key, build)


def _diverse_mix() -> List[Tuple[str, Scenario]]:
    """All-cold diverse traffic: every (op, scenario) is a distinct result key."""
    if SMOKE:
        scenarios = [
            Scenario(exchange="floodset", num_agents=2, max_faulty=1),
            Scenario(exchange="emin", num_agents=2, max_faulty=1),
        ]
        return [("check", s) for s in scenarios] + [("synthesize", s) for s in scenarios]
    scenarios = [
        Scenario(exchange="floodset", num_agents=2, max_faulty=1),
        Scenario(exchange="floodset", num_agents=3, max_faulty=1),
        Scenario(exchange="count", num_agents=2, max_faulty=1),
        Scenario(exchange="count", num_agents=3, max_faulty=2),
        Scenario(exchange="diff", num_agents=2, max_faulty=1),
        Scenario(exchange="emin", num_agents=2, max_faulty=1),
    ]
    mix: List[Tuple[str, Scenario]] = []
    for scenario in scenarios:
        mix.append(("check", scenario))
        mix.append(("synthesize", scenario))
    return mix


def _threaded_barrage(session: Session, mix: List[Tuple[str, Scenario]],
                      threads: int) -> float:
    """Wall-clock for ``threads`` workers draining ``mix`` round-robin."""
    errors: list = []

    def worker(lane: int) -> None:
        try:
            for op, scenario in mix[lane::threads]:
                session.query(op, scenario)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(lane,))
               for lane in range(threads)]
    start = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return elapsed


def test_striped_session_beats_the_single_lock_baseline_at_four_threads():
    """4-thread all-cold distinct-scenario barrage: striping >= 2x the old lock."""
    threads = 2 if SMOKE else 4
    mix = _diverse_mix()

    baseline = _SingleLockSession()
    baseline_seconds = _threaded_barrage(baseline, mix, threads)

    striped = _LatencySession()
    striped_seconds = _threaded_barrage(striped, mix, threads)

    # Both sessions answered the whole barrage cold, nothing coalesced away.
    assert striped.stats().misses >= len(mix)
    assert baseline.stats().misses >= len(mix)

    speedup = baseline_seconds / max(striped_seconds, 1e-9)

    if _RECORDING:
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {"benchmark": "session facade benchmarks", "workloads": {}}
        existing.setdefault("workloads", {})["concurrent_cold_barrage"] = {
            "workload": "4-thread all-cold diverse traffic: per-key striped "
                        "locks vs the old single build lock",
            "note": "both sessions carry the same injected "
                    f"{BUILD_LATENCY_SECONDS}s off-GIL latency per result "
                    "build (the GIL serialises pure-Python compute either "
                    "way); the speedup isolates the lock architecture",
            "scenarios": sorted({
                f"{s.exchange} n={s.num_agents} t={s.max_faulty}"
                for _, s in mix
            }),
            "queries": len(mix),
            "threads": threads,
            "build_latency_seconds": BUILD_LATENCY_SECONDS,
            "single_lock_seconds": round(baseline_seconds, 3),
            "striped_seconds": round(striped_seconds, 3),
            "speedup": round(speedup, 2),
        }
        BENCH_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    if SMOKE:
        return
    assert speedup >= CONCURRENT_SPEEDUP_FLOOR, (
        f"striped session ran the {threads}-thread barrage only "
        f"{speedup:.2f}x faster ({baseline_seconds:.2f}s -> "
        f"{striped_seconds:.2f}s; floor {CONCURRENT_SPEEDUP_FLOOR}x)"
    )


def test_concurrent_identical_cold_requests_coalesce_to_one_build():
    """Two identical cold requests racing: one build, coalesce counter = 1."""
    built: list = []

    class CountingLatencySession(_LatencySession):
        def _invoke_build(self, key, build):
            if key[0] == "result":
                built.append(key)
            return super()._invoke_build(key, build)

    session = CountingLatencySession()
    scenario = Scenario(exchange="floodset", num_agents=2, max_faulty=1)
    results: list = []

    def worker() -> None:
        results.append(session.check(scenario))

    workers = [threading.Thread(target=worker) for _ in range(2)]
    first, second = workers
    first.start()
    time.sleep(BUILD_LATENCY_SECONDS / 2)  # the duplicate lands mid-build
    second.start()
    for thread in workers:
        thread.join(timeout=120)

    assert len(results) == 2 and results[0] is results[1]
    assert len(built) == 1  # the duplicate coalesced onto the in-flight build
    stats = session.stats()
    assert stats.coalesced == 1

    if _RECORDING:
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {"benchmark": "session facade benchmarks", "workloads": {}}
        existing.setdefault("workloads", {})["identical_cold_coalesce"] = {
            "workload": "two concurrent identical cold /check requests",
            "builds": 1,
            "coalesced": stats.coalesced,
            "hits": stats.hits,
            "misses": stats.misses,
        }
        BENCH_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ pre-fork front

#: Acceptance floor for ``repro serve --workers 4`` over one worker on the
#: all-cold diverse barrage.
PREFORK_SPEEDUP_FLOOR = 2.0

PREFORK_WORKERS = 2 if SMOKE else 4

#: Injected per-cold-build latency for the simulated-GIL mode (seconds).
SIMULATED_BUILD_SECONDS = 0.05 if SMOKE else 0.25

#: ``python -c`` bootstrap for the simulated-GIL server: every cold result
#: build sleeps under a process-wide lock (created unlocked before the fork,
#: so each worker holds its own copy), then the real ``repro serve`` runs.
#: Argument 1 is the sleep, the rest is the ``repro`` command line.
_SIMULATED_GIL_BOOTSTRAP = """
import sys, threading, time
from repro.api.session import Session
from repro.cli import main

delay = float(sys.argv[1])
gil_model = threading.Lock()
invoke_build = Session._invoke_build

def _invoke_build(self, key, build):
    if key[0] == "result":
        with gil_model:
            time.sleep(delay)
    return invoke_build(self, key, build)

Session._invoke_build = _invoke_build
sys.exit(main(sys.argv[2:]))
"""

#: Real cold builds only parallelise across processes when there are cores
#: to run them on; below this the benchmark injects the simulated-GIL
#: latency instead (see the recorded note).
_REAL_COMPUTE = (os.cpu_count() or 1) >= PREFORK_WORKERS


def _prefork_mix() -> List[Tuple[str, dict]]:
    """Distinct cold queries as JSON documents (one result key each)."""
    mix = [(op, {"scenario": scenario.to_json()})
           for op, scenario in _diverse_mix()]
    seen: List[Scenario] = []
    for _, scenario in _diverse_mix():
        if scenario.family == "sba" and scenario not in seen:
            seen.append(scenario)
            mix.append(
                ("check", {"scenario": scenario.to_json(), "temporal": True}))
    return mix


def _spawn_serve(workers: int) -> Tuple[object, str]:
    """A real ``repro serve`` subprocess; returns (process, base URL)."""
    import re
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    serve = ["serve", "--port", "0", "--workers", str(workers), "--quiet"]
    if _REAL_COMPUTE:
        command = [sys.executable, "-m", "repro"] + serve
    else:
        command = [sys.executable, "-c", _SIMULATED_GIL_BOOTSTRAP,
                   str(SIMULATED_BUILD_SECONDS)] + serve
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no serve banner (got {banner!r})"
    return process, f"http://127.0.0.1:{match.group(1)}"


def _drive_prefork(workers: int, mix: List[Tuple[str, dict]],
                   clients: int) -> float:
    """Wall-clock for ``clients`` threads draining ``mix`` once, cold."""
    import signal
    import urllib.request

    process, base = _spawn_serve(workers)
    errors: list = []

    def client(lane: int) -> None:
        try:
            for op, payload in mix[lane::clients]:
                request = urllib.request.Request(
                    f"{base}/{op}", data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=600) as response:
                    assert json.loads(response.read())["ok"]
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    try:
        threads = [threading.Thread(target=client, args=(lane,))
                   for lane in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        elapsed = time.perf_counter() - start
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=60)
        except Exception:  # pragma: no cover - cleanup of a hung server
            process.kill()
            process.communicate(timeout=30)
    assert not errors, errors
    return elapsed


def test_prefork_workers_beat_one_process_on_cold_traffic():
    """``--workers 4`` answers the all-cold barrage >= 2x faster than one
    worker.

    Both servers are the same supervised front (``--workers 1`` is its
    default), each a fresh subprocess with no store, so every query is a
    cold CPU-bound build; clients use one connection per request, so the
    kernel spreads the load across the workers at ``accept()``.  On hosts
    with fewer cores than workers the servers run under the simulated-GIL
    bootstrap instead of on real compute (recorded in the ``mode`` field):
    the sleep holds a process-wide lock, so it serialises within a process
    and parallelises across forked workers exactly as GIL-bound compute
    does on a machine with the cores to run it.
    """
    mix = _prefork_mix()
    clients = 4 if SMOKE else 8

    single_seconds = _drive_prefork(1, mix, clients)
    prefork_seconds = _drive_prefork(PREFORK_WORKERS, mix, clients)
    speedup = single_seconds / max(prefork_seconds, 1e-9)

    if _RECORDING:
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {"benchmark": "session facade benchmarks", "workloads": {}}
        existing.setdefault("workloads", {})["prefork_cold_diverse_traffic"] = {
            "workload": f"repro serve --workers {PREFORK_WORKERS} vs one "
                        f"worker: {len(mix)} distinct cold queries from "
                        f"{clients} client threads",
            "mode": "real-compute" if _REAL_COMPUTE else "simulated-gil",
            "note": "real-compute when the host has at least as many cores "
                    "as workers; otherwise each cold build carries "
                    f"{SIMULATED_BUILD_SECONDS}s of injected latency under "
                    "a process-wide lock (patched into Session._invoke_build "
                    "by the benchmark's server bootstrap), which "
                    "serialises inside a process and parallelises across "
                    "forked workers exactly like GIL-bound compute",
            "queries": len(mix),
            "client_threads": clients,
            "workers": PREFORK_WORKERS,
            "cores": os.cpu_count(),
            "single_process_seconds": round(single_seconds, 3),
            "prefork_seconds": round(prefork_seconds, 3),
            "speedup": round(speedup, 2),
        }
        BENCH_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    if SMOKE:
        return
    assert speedup >= PREFORK_SPEEDUP_FLOOR, (
        f"{PREFORK_WORKERS} workers answered the {len(mix)}-query cold "
        f"barrage only {speedup:.2f}x faster ({single_seconds:.2f}s -> "
        f"{prefork_seconds:.2f}s; floor {PREFORK_SPEEDUP_FLOOR}x)"
    )


def test_serve_answers_concurrent_repeated_queries_from_the_session_cache():
    """The JSON service on one shared session: concurrent repeats are hits."""
    import urllib.request

    from repro.api.service import make_server

    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    n, t = (2, 1) if SMOKE else (3, 1)
    scenario = {"exchange": "floodset", "num_agents": n, "max_faulty": t}
    clients = 2 if SMOKE else 8
    rounds = 2 if SMOKE else 5

    def post(path, payload):
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read())

    try:
        errors: list = []

        def client() -> None:
            try:
                for _ in range(rounds):
                    assert post("/check", {"scenario": scenario})["ok"]
                    assert post("/synthesize", {"scenario": scenario})["ok"]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=300)
        elapsed = time.perf_counter() - start
        assert not errors
        cache = post("/batch", {"requests": []})["cache"]
    finally:
        server.shutdown()
        server.server_close()

    total_queries = clients * rounds * 2
    # Every request past the first two built nothing: the shared session
    # answered it from the cache.
    assert cache["hits"] >= total_queries - 2

    if _RECORDING:
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {"benchmark": "session facade benchmarks", "workloads": {}}
        existing.setdefault("workloads", {})["serve_concurrent_repeats"] = {
            "workload": "repro serve: concurrent clients repeating one "
                        "check/synthesize pair",
            "scenario": f"floodset n={n} t={t}",
            "clients": clients,
            "queries": total_queries,
            "seconds": round(elapsed, 3),
            "session_cache": cache,
        }
        BENCH_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Preloaded workers: first-query latency vs a cold session
# ---------------------------------------------------------------------------

#: Acceptance floor for the preloaded first query over the cold first query
#: on a build-dominated scenario.
PRELOAD_SPEEDUP_FLOOR = 2.0


def test_preloaded_session_first_query_beats_cold():
    """A ``serve --preload`` worker answers its first query without paying
    the space build: the parent built the artefacts pre-fork and the child
    inherits them copy-on-write.  This measures that first-query latency
    against a cold session on the same scenario (the build dominates, so
    the preloaded path should win by far more than the 2x floor)."""
    from repro.runtime.preload import Preloader

    if SMOKE:
        scenario = Scenario(exchange="floodset", num_agents=4, max_faulty=2)
    else:
        scenario = Scenario(exchange="floodset", num_agents=5, max_faulty=3)

    cold_session = Session()
    start = time.perf_counter()
    cold_result = cold_session.check(scenario)
    cold_seconds = time.perf_counter() - start

    # The preload itself happens in the serve parent, outside any query.
    preloader = Preloader()
    preload_start = time.perf_counter()
    preloader.preload_cells([("sba-model-check", scenario)])
    preload_seconds = time.perf_counter() - preload_start

    warm_session = Session(preloaded=preloader)
    start = time.perf_counter()
    warm_result = warm_session.check(scenario)
    warm_seconds = time.perf_counter() - start

    assert warm_result.to_dict() == cold_result.to_dict()
    assert warm_session.stats().preloaded == 2  # model + space served
    assert warm_session.build_seconds() == 0.0

    speedup = cold_seconds / max(warm_seconds, 1e-9)

    if _RECORDING:
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            existing = {"benchmark": "session facade benchmarks",
                        "workloads": {}}
        existing.setdefault("workloads", {})["preloaded_first_query"] = {
            "workload": "serve --preload: first query on a preloaded worker "
                        "vs a cold session",
            "scenario": (f"floodset n={scenario.num_agents} "
                         f"t={scenario.max_faulty}"),
            "cold_first_query_seconds": round(cold_seconds, 3),
            "preload_seconds": round(preload_seconds, 3),
            "preloaded_first_query_seconds": round(warm_seconds, 3),
            "speedup": round(speedup, 2),
        }
        BENCH_PATH.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n")

    if SMOKE:
        return
    assert speedup >= PRELOAD_SPEEDUP_FLOOR, (
        f"preloaded first query was only {speedup:.2f}x faster "
        f"({cold_seconds:.3f}s -> {warm_seconds:.3f}s; "
        f"floor {PRELOAD_SPEEDUP_FLOOR}x)"
    )
