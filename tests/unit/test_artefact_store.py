"""Unit and fault-injection tests for the persistent artefact store.

The store is the crash-consistency boundary of the serving stack, so the
battery leans on fault injection: torn and corrupt files, wrong versions,
renamed entries, and a full disk (ENOSPC simulated by monkeypatching the
atomic-write plumbing) must all degrade to cold queries with a warning —
never an exception, never a wrong answer.
"""

import errno
import json
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.api import ArtefactStore, Scenario, Session
from repro.api.artefact_store import STORE_FORMAT_VERSION
from repro.api.results import SCHEMA_VERSION, CheckResult

SCENARIO = Scenario(exchange="floodset", num_agents=2, max_faulty=1)

RESULT = CheckResult(
    task="sba-model-check", engine="bitset", exchange="floodset",
    failures="crash", num_agents=2, max_faulty=1, states=7,
    spec={"validity": True},
)


@pytest.fixture
def store(tmp_path):
    return ArtefactStore(tmp_path / "store")


def _populate(store, op="check"):
    key = SCENARIO.canonical_json()
    assert store.put_result(op, key, RESULT.to_json())
    return key


class TestRoundTrip:
    def test_put_then_get_returns_the_payload(self, store):
        key = _populate(store)
        payload = store.get_result("check", key)
        assert payload == RESULT.to_json()
        assert CheckResult.from_json(payload) == RESULT

    def test_missing_entry_is_a_counted_miss(self, store):
        assert store.get_result("check", SCENARIO.canonical_json()) is None
        assert store.stats()["misses"] == 1

    def test_hits_misses_and_writes_are_counted(self, store):
        key = _populate(store)
        store.get_result("check", key)
        store.get_result("synthesize", key)
        stats = store.stats()
        assert stats["writes"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_distinct_ops_and_scenarios_are_distinct_entries(self, store):
        key = _populate(store, op="check")
        assert store.get_result("synthesize", key) is None
        other = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        assert store.get_result("check", other.canonical_json()) is None

    def test_rewrite_replaces_the_entry(self, store):
        key = _populate(store)
        newer = json.loads(json.dumps(RESULT.to_json()))
        newer["states"] = 99
        assert store.put_result("check", key, newer)
        assert store.get_result("check", key)["states"] == 99

    def test_store_directory_layout_is_created(self, tmp_path):
        root = tmp_path / "deep" / "store"
        ArtefactStore(root)
        assert (root / "results").is_dir()
        assert (root / "quarantine").is_dir()


class TestAtomicity:
    def test_no_temporary_files_survive_a_write(self, store):
        key = _populate(store)
        leftovers = [p for p in (store.root / "results").iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []
        assert store.get_result("check", key) is not None

    def test_abandoned_tmp_file_is_invisible_to_readers(self, store):
        # A crash between mkstemp and os.replace leaves a .tmp file; it must
        # never be read as an entry.
        key = SCENARIO.canonical_json()
        path = store.result_path("check", key)
        (path.parent / (path.name + ".abandoned.tmp")).write_text("{garbage")
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 0


class TestQuarantine:
    def _entry_path(self, store, key):
        return store.result_path("check", key)

    def test_corrupt_json_is_quarantined_not_raised(self, store, caplog):
        key = _populate(store)
        self._entry_path(store, key).write_text("{not json at all")
        with caplog.at_level("WARNING"):
            assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1
        assert "quarantined" in caplog.text
        # The bad file moved aside; the slot is clean and writable again.
        assert not self._entry_path(store, key).exists()
        assert len(list((store.root / "quarantine").iterdir())) == 1
        _populate(store)
        assert store.get_result("check", key) is not None

    def test_truncated_record_is_quarantined(self, store):
        key = _populate(store)
        path = self._entry_path(store, key)
        path.write_bytes(path.read_bytes()[:25])  # torn mid-record
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1

    def test_wrong_store_format_version_is_quarantined(self, store):
        key = _populate(store)
        path = self._entry_path(store, key)
        record = json.loads(path.read_text())
        record["format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1

    def test_wrong_schema_version_is_quarantined(self, store):
        key = _populate(store)
        path = self._entry_path(store, key)
        record = json.loads(path.read_text())
        record["schema_version"] = SCHEMA_VERSION + 10
        path.write_text(json.dumps(record))
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1

    def test_wrong_payload_schema_version_is_quarantined(self, store):
        key = _populate(store)
        path = self._entry_path(store, key)
        record = json.loads(path.read_text())
        record["result"]["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1

    def test_renamed_entry_never_answers_the_wrong_query(self, store):
        # Copy a valid record onto another query's slot: the embedded
        # identity no longer matches and the file is quarantined.
        key = _populate(store)
        other = Scenario(exchange="floodset", num_agents=3, max_faulty=2)
        other_key = other.canonical_json()
        source = self._entry_path(store, key)
        target = store.result_path("check", other_key)
        target.write_bytes(source.read_bytes())
        assert store.get_result("check", other_key) is None
        assert store.stats()["quarantined"] == 1
        # The original entry is untouched.
        assert store.get_result("check", key) is not None

    def test_non_object_record_is_quarantined(self, store):
        key = SCENARIO.canonical_json()
        store.result_path("check", key).write_text(json.dumps([1, 2, 3]))
        assert store.get_result("check", key) is None
        assert store.stats()["quarantined"] == 1

    def test_quarantined_generations_do_not_clobber_each_other(self, store):
        key = _populate(store)
        for _ in range(3):
            self._entry_path(store, key).write_text("{broken")
            assert store.get_result("check", key) is None
        assert len(list((store.root / "quarantine").iterdir())) == 3


def _quarantine_worker(root, source, barrier):
    """Race helper: quarantine ``source`` from a forked process."""
    store = ArtefactStore(root)
    barrier.wait()  # both processes release together, targeting one name
    store.quarantine(Path(source), "race test")


def _reader_worker(root, keys, duration, queue):
    """Race helper: hammer ``get_result`` while another process compacts.

    Reports (reads, wrong_payloads); wrong_payloads must stay zero — a
    compacted-away entry is a miss, never an error or a wrong answer.
    """
    store = ArtefactStore(root)
    deadline = time.time() + duration
    reads = wrong = 0
    try:
        while time.time() < deadline:
            for key in keys:
                payload = store.get_result("check", key)
                if payload is not None and payload != RESULT.to_json():
                    wrong += 1
                reads += 1
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("error", repr(exc)))
        return
    queue.put(("ok", reads, wrong))


class TestQuarantineRace:
    """The quarantine name claim must be exclusive-create, never clobber.

    Regression: the old probe-then-``os.replace`` dance let a second
    quarantine (another process, or a later corrupt generation) land on a
    name the probe had just reported free, silently destroying the
    evidence the quarantine directory exists to preserve.
    """

    def test_pre_existing_quarantine_target_is_preserved(self, store):
        key = _populate(store)
        path = store.result_path("check", key)
        target = store.root / "quarantine" / path.name
        target.write_text("first generation")
        path.write_text("{broken")
        assert store.get_result("check", key) is None
        # The old generation is untouched; the new one took the next name.
        assert target.read_text() == "first generation"
        assert (store.root / "quarantine" / (path.name + ".1")).read_text() \
            == "{broken"

    def test_vanished_entry_is_tolerated(self, store):
        # A racing process quarantined (or removed) the file first: the
        # loser counts the quarantine and moves on, no exception.
        key = _populate(store)
        path = store.result_path("check", key)
        path.unlink()
        store.quarantine(path, "already gone")
        assert store.stats()["quarantined"] == 1

    def test_two_processes_quarantining_one_name_never_clobber(self, tmp_path):
        # Two processes race to quarantine distinct corrupt generations
        # that share a file name (the exact shape of the old lost-update):
        # afterwards *both* generations must exist under quarantine/.
        ctx = multiprocessing.get_context("fork")
        root = tmp_path / "store"
        ArtefactStore(root)  # create the directory layout up front
        sources = []
        for index in range(2):
            side = tmp_path / f"gen{index}"
            side.mkdir()
            source = side / "entry.json"
            source.write_text(f"generation-{index}")
            sources.append(source)
        barrier = ctx.Barrier(2)
        processes = [
            ctx.Process(target=_quarantine_worker,
                        args=(str(root), str(source), barrier))
            for source in sources
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert all(process.exitcode == 0 for process in processes)
        survivors = sorted(
            item.read_text() for item in (root / "quarantine").iterdir())
        assert survivors == ["generation-0", "generation-1"]


class TestCompaction:
    def _fill(self, store, count, base_agents=2):
        keys = []
        for offset in range(count):
            scenario = Scenario(exchange="floodset",
                                num_agents=base_agents + offset, max_faulty=1)
            key = scenario.canonical_json()
            assert store.put_result("check", key, RESULT.to_json())
            keys.append(key)
        return keys

    def test_bounds_are_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ArtefactStore(tmp_path / "s", max_bytes=0)
        with pytest.raises(ValueError):
            ArtefactStore(tmp_path / "s", max_entries=0)
        with pytest.raises(ValueError):
            ArtefactStore(tmp_path / "s", compact_interval=0)

    def test_disk_stats_report_entries_and_bytes(self, store):
        self._fill(store, 2)
        stats = store.disk_stats()
        assert stats["results"]["entries"] == 2
        assert stats["total"]["entries"] == 2
        assert stats["total"]["bytes"] == stats["results"]["bytes"] > 0
        assert stats["quarantine"] == {"entries": 0, "bytes": 0}

    def test_compact_drops_the_oldest_entries_first(self, store):
        keys = self._fill(store, 5)
        for position, key in enumerate(keys):
            path = store.result_path("check", key)
            os.utime(path, (1000.0 + position, 1000.0 + position))
        summary = store.compact(max_entries=2)
        assert summary["examined"] == 5
        assert summary["kept"] == 2
        assert summary["removed"] == 3
        # The two newest survive; the three oldest are gone (as misses).
        assert store.get_result("check", keys[4]) is not None
        assert store.get_result("check", keys[3]) is not None
        assert store.get_result("check", keys[0]) is None
        assert store.stats()["compacted"] == 3

    def test_read_hits_refresh_recency(self, store):
        keys = self._fill(store, 3)
        for key in keys:
            path = store.result_path("check", key)
            os.utime(path, (1000.0, 1000.0))
        # A hit touches the entry, so LRU keeps the read one, not the
        # most recently written one.
        assert store.get_result("check", keys[0]) is not None
        store.compact(max_entries=1)
        assert store.get_result("check", keys[0]) is not None
        assert store.get_result("check", keys[2]) is None

    def test_compact_enforces_a_byte_bound(self, store):
        keys = self._fill(store, 4)
        sizes = [store.result_path("check", key).stat().st_size for key in keys]
        bound = sizes[-1] + sizes[-2]  # room for roughly two entries
        summary = store.compact(max_bytes=bound)
        assert summary["kept_bytes"] <= bound
        assert summary["removed"] >= 2
        assert store.disk_stats()["total"]["bytes"] <= bound

    def test_quarantine_never_counts_towards_the_bounds(self, store):
        keys = self._fill(store, 2)
        path = store.result_path("check", keys[0])
        path.write_text("{broken")
        assert store.get_result("check", keys[0]) is None  # quarantined
        summary = store.compact(max_entries=1)
        assert summary["examined"] == 1  # only the surviving live entry
        assert len(list((store.root / "quarantine").iterdir())) == 1

    def test_stale_tmp_files_are_swept_fresh_ones_kept(self, store):
        stale = store.root / "results" / "crashed-writer.tmp"
        stale.write_text("debris")
        os.utime(stale, (time.time() - 7200,) * 2)
        fresh = store.root / "results" / "live-writer.tmp"
        fresh.write_text("in flight")
        store.compact(max_entries=10)
        assert not stale.exists()
        assert fresh.exists()

    def test_store_compacts_itself_every_interval(self, tmp_path):
        store = ArtefactStore(tmp_path / "store", max_entries=2,
                              compact_interval=2)
        self._fill(store, 6)
        # Six writes at interval two: the store ran its own passes and the
        # directory never strayed more than one interval past the bound.
        assert store.stats()["compactions"] >= 3  # init pass + every 2 writes
        assert store.disk_stats()["total"]["entries"] <= 3
        store.compact()
        assert store.disk_stats()["total"]["entries"] <= 2

    def test_restart_compacts_an_over_bound_directory(self, tmp_path):
        unbounded = ArtefactStore(tmp_path / "store")
        self._fill(unbounded, 5)
        assert unbounded.disk_stats()["total"]["entries"] == 5
        bounded = ArtefactStore(tmp_path / "store", max_entries=2)
        assert bounded.disk_stats()["total"]["entries"] <= 2

    def test_byte_bound_holds_under_a_concurrent_reader_process(self, tmp_path):
        # The acceptance scenario: one process writes and compacts under a
        # byte bound while a second process keeps reading the same store.
        # The reader must only ever see hits or misses — no exceptions, no
        # wrong payloads — and the writer must end within its bound.
        ctx = multiprocessing.get_context("fork")
        root = tmp_path / "store"
        seed = ArtefactStore(root)
        hot_keys = self._fill(seed, 4)
        entry_size = max(
            seed.result_path("check", key).stat().st_size for key in hot_keys)
        bound = entry_size * 6
        queue = ctx.Queue()
        reader = ctx.Process(target=_reader_worker,
                             args=(str(root), hot_keys, 2.0, queue))
        reader.start()
        try:
            writer = ArtefactStore(root, max_bytes=bound, compact_interval=4)
            for offset in range(40):
                scenario = Scenario(exchange="floodset",
                                    num_agents=50 + offset, max_faulty=1)
                writer.put_result("check", scenario.canonical_json(),
                                  RESULT.to_json())
                # Between self-compactions the store may run at most one
                # interval of writes past the bound, never unbounded.
                assert writer.disk_stats()["total"]["bytes"] \
                    <= bound + entry_size * writer._compact_interval
            writer.compact()
            assert writer.disk_stats()["total"]["bytes"] <= bound
            report = queue.get(timeout=30)
        finally:
            reader.join(timeout=30)
        assert reader.exitcode == 0
        assert report[0] == "ok", report
        _, reads, wrong = report
        assert reads > 0
        assert wrong == 0


class TestWriteFailures:
    def test_enospc_is_counted_and_degrades_to_no_write(self, store, monkeypatch, caplog):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.api.artefact_store.os.replace", full_disk)
        with caplog.at_level("WARNING"):
            assert store.put_result(
                "check", SCENARIO.canonical_json(), RESULT.to_json()) is False
        assert store.stats()["write_errors"] == 1
        assert "ENOSPC" in caplog.text
        # No temp-file debris left behind by the failed publish.
        assert list((store.root / "results").iterdir()) == []

    def test_enospc_at_write_time_is_also_safe(self, store, monkeypatch):
        real_write = os.write

        def full_disk(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.api.artefact_store.os.write", full_disk)
        assert store.put_result(
            "check", SCENARIO.canonical_json(), RESULT.to_json()) is False
        monkeypatch.setattr("repro.api.artefact_store.os.write", real_write)
        # The store recovers as soon as the disk does.
        assert store.put_result(
            "check", SCENARIO.canonical_json(), RESULT.to_json()) is True

    def test_session_queries_survive_a_dead_store(self, tmp_path, monkeypatch):
        store = ArtefactStore(tmp_path / "store")

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.api.artefact_store.os.replace", full_disk)
        session = Session(store=store)
        result = session.check(SCENARIO)
        assert result.spec_ok
        assert session.stats().store["write_errors"] >= 1
        # And the answer is cached in memory despite the dead store.
        assert session.check(SCENARIO) is result


class TestLegacyPickledSpaces:
    def test_old_store_with_pickled_spaces_serves_and_stays_bounded(
        self, tmp_path, monkeypatch
    ):
        """``artefacts/*.pkl`` from older builds: counted, compacted, never read."""
        root = tmp_path / "store"
        result = Session(store=ArtefactStore(root)).check(SCENARIO)
        legacy = root / "artefacts"
        legacy.mkdir()
        old = time.time() - 3600
        for index in range(3):
            path = legacy / f"{index:064x}.pkl"
            path.write_bytes(pickle.dumps({"identity": "space", "artefact": [index]}))
            os.utime(path, (old, old))

        def refuse(*args, **kwargs):
            raise AssertionError("the store unpickled a file")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        store = ArtefactStore(root)
        assert store.disk_stats()["artefacts"]["entries"] == 3
        session = Session(store=store)
        assert session.check(SCENARIO) == result
        assert store.stats()["hits"] == 1
        assert store.compact(max_entries=1)["removed"] == 3
        assert list(legacy.iterdir()) == []
        assert Session(store=ArtefactStore(root)).check(SCENARIO) == result


class TestKeySchema:
    def test_identity_includes_op_scenario_and_schema_version(self):
        identity = ArtefactStore.result_identity("check", SCENARIO.canonical_json())
        parsed = json.loads(identity)
        assert parsed["op"] == "check"
        assert parsed["schema_version"] == SCHEMA_VERSION
        assert json.loads(parsed["scenario"])["exchange"] == "floodset"

