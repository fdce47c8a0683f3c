"""Concurrency battery for the striped, store-backed :class:`Session`.

The serving claims this suite pins:

* two *identical* cold requests coalesce onto exactly one artefact build;
* two *different* cold requests build concurrently (no global build lock);
* N-thread mixed cold/warm barrages finish without deadlock, duplicate
  builds or counter anomalies, even under heavy eviction pressure;
* an entry whose build another thread is waiting on is never evicted out
  from under the waiter;
* a second process pointed at a populated ``--store`` answers its first
  repeated query from the store tier without rebuilding.

The instrumentation seam is ``Session._invoke_build`` — the one method the
session runs outside its bookkeeping lock — so the tests count and delay
builds without touching the locking discipline they are probing.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter

import pytest

import repro
from repro.api import ArtefactStore, Scenario, Session

FLOODSET_2_1 = Scenario(exchange="floodset", num_agents=2, max_faulty=1)
FLOODSET_3_1 = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
FLOODSET_3_2 = Scenario(exchange="floodset", num_agents=3, max_faulty=2)
COUNT_3_1 = Scenario(exchange="count", num_agents=3, max_faulty=1)
EMIN_2_1 = Scenario(exchange="emin", num_agents=2, max_faulty=1)

#: src/ directory for subprocess PYTHONPATH (tests may run from anywhere).
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _subprocess_env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return env


class CountingSession(Session):
    """A session that counts builds per cache key (thread-safe)."""

    def __init__(self, *args, build_delay=0.0, delay_kinds=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.builds = Counter()
        self.builds_lock = threading.Lock()
        self.build_delay = build_delay
        self.delay_kinds = delay_kinds

    def _invoke_build(self, key, build):
        with self.builds_lock:
            self.builds[key] += 1
        if self.build_delay and (self.delay_kinds is None or key[0] in self.delay_kinds):
            time.sleep(self.build_delay)
        return super()._invoke_build(key, build)


class SingleLockSession(CountingSession):
    """The pre-striping baseline: every build under one re-entrant lock
    (a result build nests its model and space builds)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.single_lock = threading.RLock()

    def _invoke_build(self, key, build):
        with self.single_lock:
            return super()._invoke_build(key, build)


def _run_threads(workers, timeout=120):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), "worker thread deadlocked"


class TestCoalescing:
    def test_identical_cold_requests_build_every_artefact_once(self):
        session = CountingSession(build_delay=0.05)
        results = []
        errors = []

        def worker():
            try:
                results.append(session.check(FLOODSET_2_1))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        _run_threads([worker] * 8)
        assert not errors
        assert len(results) == 8
        assert all(result is results[0] for result in results)
        duplicates = {key: count for key, count in session.builds.items() if count > 1}
        assert duplicates == {}, f"duplicate builds under coalescing: {duplicates}"
        stats = session.stats()
        # Every thread past the builder either coalesced on the result key
        # or hit the fast path after the build landed.
        assert stats.misses == len(session.builds)
        assert stats.hits >= 7
        assert stats.coalesced + stats.hits >= 7

    def test_two_identical_cold_requests_coalesce_exactly_once(self):
        session = CountingSession(build_delay=0.2, delay_kinds=("result",))
        barrier = threading.Barrier(2)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(session.check(FLOODSET_2_1))

        _run_threads([worker] * 2)
        assert results[0] is results[1]
        assert session.builds[("result", "check", FLOODSET_2_1.canonical_json())] == 1
        assert session.stats().coalesced == 1

    def test_coalesced_waiter_survives_eviction_pressure(self):
        # While one thread builds (slowly) and another waits on the same
        # key, a third floods a tiny cache: the in-flight key is pinned, so
        # the waiter must read the builder's entry, never rebuild it.
        session = CountingSession(max_entries=2, build_delay=0.2,
                                  delay_kinds=("result",))
        started = threading.Event()
        results = []

        def builder():
            started.set()
            results.append(session.synthesize(FLOODSET_2_1))

        def waiter():
            started.wait(timeout=10)
            time.sleep(0.05)  # let the builder take the key lock first
            results.append(session.synthesize(FLOODSET_2_1))

        def flooder():
            started.wait(timeout=10)
            for scenario in (FLOODSET_3_1, FLOODSET_3_2, COUNT_3_1, EMIN_2_1):
                session.model(scenario)

        _run_threads([builder, waiter, flooder])
        assert len(results) == 2 and results[0] is results[1]
        key = ("result", "synthesize", FLOODSET_2_1.canonical_json())
        assert session.builds[key] == 1


class TestStripedBuilds:
    def test_distinct_scenarios_build_concurrently(self):
        # Each worker's model build blocks on a shared barrier: with per-key
        # locks both builds are in flight together and the barrier clears;
        # under a global build lock this would time out (and does, for the
        # legacy single-lock mode, below).
        barrier = threading.Barrier(2, timeout=10)

        class BarrierSession(CountingSession):
            def _invoke_build(self, key, build):
                if key[0] == "model":
                    barrier.wait()
                return super()._invoke_build(key, build)

        session = BarrierSession()
        errors = []

        def worker(scenario):
            try:
                session.check(scenario)
            except threading.BrokenBarrierError:  # pragma: no cover
                errors.append("builds were serialised")

        _run_threads([lambda: worker(FLOODSET_2_1), lambda: worker(EMIN_2_1)])
        assert errors == []

    def test_single_lock_baseline_serialises_builds(self):
        # The control experiment: with every build under one lock the
        # barrier can never clear, proving the striped mode above is what
        # unblocked the concurrent builds.
        barrier = threading.Barrier(2, timeout=1.5)
        observed = []

        class BarrierSession(SingleLockSession):
            def _invoke_build(self, key, build):
                if key[0] == "model":
                    try:
                        barrier.wait()
                        observed.append("concurrent")
                    except threading.BrokenBarrierError:
                        observed.append("serialised")
                return super()._invoke_build(key, build)

        session = BarrierSession()
        _run_threads([
            lambda: session.check(FLOODSET_2_1),
            lambda: session.check(EMIN_2_1),
        ])
        assert "concurrent" not in observed


class TestBarrage:
    def test_mixed_cold_warm_barrage_is_deadlock_free_and_consistent(self):
        session = CountingSession(max_entries=6, build_delay=0.01)
        scenarios = [FLOODSET_2_1, FLOODSET_3_1, FLOODSET_3_2, EMIN_2_1]
        ops = ["check", "synthesize", "temporal"]
        errors = []
        completed = Counter()
        snapshots = []
        stop_polling = threading.Event()

        def client(seed):
            import random

            rng = random.Random(seed)
            try:
                for _ in range(6):
                    scenario = rng.choice(scenarios)
                    op = rng.choice(ops)
                    if op == "temporal" and scenario.family != "sba":
                        op = "check"
                    session.query(op, scenario)
                    completed[(op, scenario)] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def poller():
            while not stop_polling.is_set():
                snapshots.append(session.stats())
                time.sleep(0.005)

        poll_thread = threading.Thread(target=poller)
        poll_thread.start()
        try:
            _run_threads([lambda seed=seed: client(seed) for seed in range(8)])
        finally:
            stop_polling.set()
            poll_thread.join(timeout=10)

        assert errors == []
        assert sum(completed.values()) == 8 * 6
        # Counters are monotone across every observed snapshot.
        snapshots.append(session.stats())
        for before, after in zip(snapshots, snapshots[1:]):
            assert after.hits >= before.hits
            assert after.misses >= before.misses
            assert after.coalesced >= before.coalesced
        # The weighted cache respected its entry bound (no pins outlive the
        # barrage) and the weight accounting closed.
        final = session.stats()
        assert final.entries <= 6
        assert final.weight_bytes >= 0
        # No artefact key was ever built more than once *while cached*:
        # rebuilds can only follow evictions, and result keys for the four
        # scenarios fit the cache tail, so spot-check a warm repeat is free.
        misses_before = session.stats().misses
        session.check(FLOODSET_2_1)
        session.check(FLOODSET_2_1)
        assert session.stats().misses <= misses_before + len(session.builds)

    def test_barrage_through_the_store_tier(self, tmp_path):
        # Same shape, with a shared persistent store underneath: the store
        # absorbs result misses after evictions, and its counters stay
        # consistent under concurrency.
        store = ArtefactStore(tmp_path / "store")
        session = CountingSession(max_entries=4, store=store)
        errors = []

        def client(scenario):
            try:
                for _ in range(4):
                    session.check(scenario)
                    session.synthesize(scenario)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads([
            lambda: client(FLOODSET_2_1),
            lambda: client(FLOODSET_3_1),
            lambda: client(EMIN_2_1),
            lambda: client(FLOODSET_2_1),
        ])
        assert errors == []
        stats = session.stats()
        store_stats = stats.store
        assert store_stats["writes"] >= 6  # one per distinct (op, scenario)
        assert store_stats["quarantined"] == 0
        # Every store lookup resolved one way or the other.
        assert store_stats["hits"] + store_stats["misses"] >= store_stats["writes"]


class TestCrossProcessWarmStart:
    POPULATE = """
import sys
from repro.api import ArtefactStore, Scenario, Session

store = ArtefactStore(sys.argv[1])
session = Session(store=store)
scenario = Scenario(exchange="floodset", num_agents=2, max_faulty=1)
result = session.check(scenario)
assert result.spec_ok
assert session.stats().store["writes"] >= 1
print("populated")
"""

    def _populate(self, store_dir):
        completed = subprocess.run(
            [sys.executable, "-c", self.POPULATE, str(store_dir)],
            capture_output=True, text=True, timeout=120, env=_subprocess_env(),
        )
        assert completed.returncode == 0, completed.stderr
        assert "populated" in completed.stdout

    def test_second_session_starts_warm_from_another_process_store(self, tmp_path):
        store_dir = tmp_path / "store"
        self._populate(store_dir)

        session = CountingSession(store=ArtefactStore(store_dir))
        result = session.check(FLOODSET_2_1)
        assert result.spec_ok
        # The store answered before any artefact build started.
        assert session.builds == Counter()
        stats = session.stats()
        assert stats.store["hits"] == 1
        assert stats.misses == 0

    def test_serve_process_answers_from_store_populated_by_another_process(self, tmp_path):
        store_dir = tmp_path / "store"
        self._populate(store_dir)

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store_dir), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_subprocess_env(),
        )
        try:
            port = self._wait_for_port(process)
            payload = json.dumps({"scenario": {
                "exchange": "floodset", "num_agents": 2, "max_faulty": 1,
            }}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/check", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                body = json.loads(response.read())
            assert body["ok"] is True
            assert body["result"]["task"] == "sba-model-check"
            # The very first query of the fresh process was a store-tier hit:
            # nothing was built.
            assert body["cache"]["store"]["hits"] == 1
            assert body["cache"]["misses"] == 0
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=15)

    @staticmethod
    def _wait_for_port(process, timeout=60):
        """Parse the bound port from the serve banner (written with flush)."""
        result = {}

        def reader():
            line = process.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line or "")
            if match:
                result["port"] = int(match.group(1))
            result["line"] = line

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout=timeout)
        assert result.get("port"), f"no serve banner (got {result.get('line')!r})"
        return result["port"]


class TestFailureConsistency:
    def test_failed_build_releases_the_key_and_poisons_nothing(self):
        boom = {"armed": True}

        class FailingSession(CountingSession):
            def _invoke_build(self, key, build):
                if key[0] == "result" and boom["armed"]:
                    boom["armed"] = False
                    raise RuntimeError("injected build failure")
                return super()._invoke_build(key, build)

        session = FailingSession()
        with pytest.raises(RuntimeError, match="injected"):
            session.check(FLOODSET_2_1)
        stats = session.stats()
        # The failed build is not a miss, not a hit, and not cached (the
        # result key fails before any artefact build starts).
        assert stats.misses == 0 and stats.hits == 0 and stats.entries == 0
        # The key lock was released and the retry succeeds from scratch.
        result = session.check(FLOODSET_2_1)
        assert result.spec_ok
        assert session.check(FLOODSET_2_1) is result

    def test_concurrent_retry_after_failure_does_not_deadlock(self):
        failures = {"remaining": 1}
        lock = threading.Lock()

        class FlakySession(CountingSession):
            def _invoke_build(self, key, build):
                if key[0] == "result":
                    with lock:
                        if failures["remaining"] > 0:
                            failures["remaining"] -= 1
                            raise RuntimeError("injected")
                return super()._invoke_build(key, build)

        session = FlakySession(build_delay=0.02)
        outcomes = []

        def worker():
            try:
                outcomes.append(session.check(FLOODSET_2_1))
            except RuntimeError:
                outcomes.append("failed")

        _run_threads([worker] * 4)
        assert outcomes.count("failed") == 1
        successes = [outcome for outcome in outcomes if outcome != "failed"]
        assert len(successes) == 3
        assert all(result is successes[0] for result in successes)
