"""Unit tests for the memoising :class:`repro.api.Session` facade."""

import threading

import pytest

from repro.api import Scenario, Session
from repro.harness.tasks import TASKS

FLOODSET = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
EMIN = Scenario(exchange="emin", num_agents=2, max_faulty=1)


class TestQueries:
    def test_check_matches_the_legacy_task(self):
        expected = TASKS["sba-model-check"](
            exchange="floodset", num_agents=3, max_faulty=1)
        assert Session().check(FLOODSET).to_dict() == expected

    def test_temporal_check_matches_the_legacy_task(self):
        expected = TASKS["sba-temporal-only"](
            exchange="floodset", num_agents=3, max_faulty=1)
        assert Session().check_temporal(FLOODSET).to_dict() == expected

    def test_synthesize_matches_the_legacy_tasks(self):
        session = Session()
        sba = TASKS["sba-synthesis"](exchange="floodset", num_agents=3, max_faulty=1)
        assert session.synthesize(FLOODSET).to_dict() == sba
        eba = TASKS["eba-synthesis"](exchange="emin", num_agents=2, max_faulty=1)
        assert session.synthesize(EMIN).to_dict() == eba

    def test_eba_check_dispatches_by_family(self):
        result = Session().check(EMIN)
        assert result.task == "eba-model-check"
        assert result.protocol is not None
        assert result.spec_ok

    def test_temporal_check_rejects_eba(self):
        with pytest.raises(ValueError, match="SBA exchanges only"):
            Session().check_temporal(EMIN)

    def test_query_dispatch_and_unknown_op(self):
        session = Session()
        assert session.query("check", FLOODSET) == session.check(FLOODSET)
        with pytest.raises(ValueError, match="unknown query op"):
            session.query("minimise", FLOODSET)

    def test_batch_runs_in_order_on_the_shared_cache(self):
        session = Session()
        results = session.batch([
            ("check", FLOODSET),
            ("synthesize", FLOODSET),
            ("check", FLOODSET),
            ("synthesize", EMIN),
        ])
        assert [r.task for r in results] == [
            "sba-model-check", "sba-synthesis", "sba-model-check",
            "eba-synthesis",
        ]
        assert results[0] is results[2]  # second check is a pure cache hit

    def test_synthesis_artifact_is_shared_with_the_summary(self):
        session = Session()
        artifact = session.synthesis_artifact(FLOODSET)
        summary = session.synthesize(FLOODSET)
        assert artifact is session.synthesis_artifact(FLOODSET)
        assert summary.states == artifact.space.num_states()

    def test_optimal_flag_is_irrelevant_to_synthesis(self):
        session = Session()
        plain = session.synthesize(FLOODSET)
        flagged = session.synthesize(
            Scenario(exchange="floodset", num_agents=3, max_faulty=1,
                     optimal_protocol=True))
        assert plain is flagged  # normalised to the same cache entry


class TestCaching:
    def test_repeated_queries_hit_the_result_cache(self):
        session = Session()
        first = session.check(FLOODSET)
        misses_after_first = session.stats().misses
        second = session.check(FLOODSET)
        assert first is second
        stats = session.stats()
        assert stats.misses == misses_after_first
        assert stats.hits > 0
        assert 0.0 < stats.hit_rate < 1.0

    def test_mixed_queries_share_artefacts(self):
        # A temporal-only check after a full check re-uses model, space and
        # checker: only the result entry itself is a new miss.
        session = Session()
        session.check(FLOODSET)
        misses_before = session.stats().misses
        session.check_temporal(FLOODSET)
        assert session.stats().misses == misses_before + 1

    def test_cache_is_bounded_and_evicts_lru(self):
        session = Session(max_entries=2)
        session.model(FLOODSET)
        session.model(EMIN)
        session.model(Scenario(exchange="count", num_agents=2, max_faulty=1))
        stats = session.stats()
        assert stats.entries <= 2
        # The first model was evicted: asking again is a miss, not a hit.
        misses = stats.misses
        session.model(FLOODSET)
        assert session.stats().misses == misses + 1

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries"):
            Session(max_entries=0)

    def test_clear_drops_artefacts(self):
        session = Session()
        session.check(FLOODSET)
        session.clear()
        assert session.stats().entries == 0

    def test_stats_to_json_is_serialisable(self):
        import json

        json.dumps(Session().stats().to_json())

    def test_cache_is_bounded_by_weight(self):
        # A budget big enough for one model (~4 KiB) but not two: the
        # second insert evicts the first even though max_entries is ample.
        session = Session(max_weight_bytes=6 * 1024)
        session.model(FLOODSET)
        session.model(EMIN)
        stats = session.stats()
        assert stats.entries == 1
        assert stats.weight_bytes <= stats.max_weight_bytes
        misses = stats.misses
        session.model(FLOODSET)  # evicted above: a rebuild, not a hit
        assert session.stats().misses == misses + 1

    def test_weight_accounting_tracks_entries(self):
        session = Session()
        assert session.stats().weight_bytes == 0
        session.check(FLOODSET)
        weight = session.stats().weight_bytes
        assert weight > 0
        session.clear()
        assert session.stats().weight_bytes == 0

    def test_max_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="max_weight_bytes"):
            Session(max_weight_bytes=0)


class TestStatsSnapshot:
    def test_stats_snapshot_is_frozen(self):
        import dataclasses

        stats = Session().stats()
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.hits = 99

    def test_stats_json_is_a_fresh_copy(self):
        session = Session()
        session.check(FLOODSET)
        snapshot = session.stats().to_json()
        snapshot["hits"] = -1
        snapshot["store"] = {"hits": 10**6}
        # Mutating a handed-out snapshot (as a service response might)
        # cannot touch the session's own accounting.
        assert session.stats().to_json()["hits"] != -1
        assert session.stats().store is None

    def test_store_counters_are_read_only(self, tmp_path):
        from repro.api import ArtefactStore

        session = Session(store=ArtefactStore(tmp_path / "store"))
        session.check(FLOODSET)
        stats = session.stats()
        with pytest.raises(TypeError):
            stats.store["hits"] = 10**6
        # ...and the JSON form converts them to a plain (fresh) dict.
        import json

        json.dumps(stats.to_json())


class TestStatsAggregation:
    def test_aggregate_sums_counters_and_recomputes_hit_rate(self):
        from repro.api.session import SessionStats

        views = [
            {"hits": 9, "misses": 1, "coalesced": 2, "entries": 4,
             "hit_rate": 0.9, "store": {"hits": 3, "misses": 1}},
            {"hits": 0, "misses": 10, "coalesced": 0, "entries": 1,
             "hit_rate": 0.0, "store": {"hits": 0, "misses": 7}},
        ]
        merged = SessionStats.aggregate_json(views)
        assert merged["workers"] == 2
        assert merged["hits"] == 9 and merged["misses"] == 11
        assert merged["coalesced"] == 2 and merged["entries"] == 5
        # Recomputed from the summed totals (9/20), not averaged (0.45
        # either way here, but 0.9-and-0.0 averaged would hide the busy
        # worker's denominator).
        assert merged["hit_rate"] == 0.45
        assert merged["store"] == {"hits": 3, "misses": 8}

    def test_aggregate_of_nothing_is_empty_but_well_formed(self):
        from repro.api.session import SessionStats

        merged = SessionStats.aggregate_json([])
        assert merged["workers"] == 0
        assert merged["hit_rate"] == 0.0
        assert "store" not in merged

    def test_aggregate_accepts_real_snapshots(self):
        from repro.api.session import SessionStats

        session = Session()
        session.check(FLOODSET)
        session.check(FLOODSET)
        merged = SessionStats.aggregate_json(
            [session.stats().to_json(), session.stats().to_json()])
        assert merged["workers"] == 2
        assert merged["hits"] == 2 * session.stats().hits


class TestBatchFailureConsistency:
    def test_failing_scenario_mid_batch_leaves_a_consistent_session(self):
        session = Session()
        # The temporal op on an EBA scenario raises; the batch propagates
        # the error after completing the earlier requests.
        with pytest.raises(ValueError, match="SBA exchanges only"):
            session.batch([
                ("check", FLOODSET),
                ("temporal", EMIN),
                ("check", FLOODSET),
            ])
        stats_after_failure = session.stats()
        # The completed prefix is cached: re-running the batch prefix is
        # pure hits, no new builds.
        result = session.check(FLOODSET)
        assert result.spec_ok
        assert session.stats().misses == stats_after_failure.misses
        # The failure consumed no cache entry and no counter.
        assert stats_after_failure.entries == session.stats().entries

    def test_mid_build_failure_does_not_poison_the_batch_key(self, monkeypatch):
        from repro.core import synthesis

        calls = {"count": 0}
        real = synthesis.synthesize_sba

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("injected mid-build failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(synthesis, "synthesize_sba", flaky)
        session = Session()
        with pytest.raises(RuntimeError, match="injected"):
            session.batch([("check", FLOODSET), ("synthesize", FLOODSET)])
        # The check result survived; the failed synthesis left no entry and
        # the retry rebuilds cleanly on the same session.
        hits_before = session.stats().hits
        assert session.check(FLOODSET).spec_ok
        assert session.stats().hits == hits_before + 1
        summary = session.synthesize(FLOODSET)
        assert summary.task == "sba-synthesis"
        assert calls["count"] == 2


class TestThreadSafety:
    def test_concurrent_identical_queries_build_once(self):
        session = Session()
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(session.check(FLOODSET)))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(result is results[0] for result in results)


class TestPreloadedSessions:
    def test_preloaded_artefacts_are_served_not_built(self):
        from repro.runtime.preload import Preloader

        preloader = Preloader()
        preloader.preload_cells([("sba-model-check", FLOODSET)])
        session = Session(preloaded=preloader)
        cold = Session().check(FLOODSET)
        warm = session.check(FLOODSET)
        assert warm.to_dict() == cold.to_dict()
        stats = session.stats()
        assert stats.preloaded == 2  # model + space both came preloaded
        assert session.build_seconds() == 0.0

    def test_preloader_serves_prefix_horizons(self):
        from repro.runtime.preload import Preloader

        tall = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        short = Scenario(exchange="floodset", num_agents=3, max_faulty=1,
                         rounds=2)
        preloader = Preloader()
        preloader.ensure(tall)
        session = Session(preloaded=preloader)
        cold = Session().check(short)
        assert session.check(short).to_dict() == cold.to_dict()
        assert session.stats().preloaded == 2

    def test_falls_through_to_fresh_build_when_not_preloaded(self):
        from repro.runtime.preload import Preloader

        preloader = Preloader()
        preloader.preload_cells([("sba-model-check", FLOODSET)])
        session = Session(preloaded=preloader)
        other = Scenario(exchange="floodset", num_agents=4, max_faulty=1)
        cold = Session().check(other)
        assert session.check(other).to_dict() == cold.to_dict()
        assert session.stats().preloaded == 0
        assert session.build_seconds() > 0.0

    def test_preloaded_counter_rides_aggregation(self):
        from repro.api.session import SessionStats
        from repro.runtime.preload import Preloader

        preloader = Preloader()
        preloader.preload_cells([("sba-model-check", FLOODSET)])
        warm = Session(preloaded=preloader)
        warm.check(FLOODSET)
        merged = SessionStats.aggregate_json([
            warm.stats().to_json(), Session().stats().to_json(),
        ])
        assert merged["preloaded"] == 2
