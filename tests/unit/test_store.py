"""Unit tests for the persistent result store (journal, resume, report)."""

import json

import pytest

import repro.harness.tables as tables_module
from repro.harness.runner import CaseOutcome
from repro.harness.store import (
    ResultStore,
    canonical_key,
    outcome_from_record,
    outcome_to_record,
)
from repro.harness.tables import (
    TableSpec,
    render_table,
    run_table,
    table1_spec,
)


def _outcome(**overrides) -> CaseOutcome:
    base = dict(
        task="sba-synthesis",
        params={"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
        seconds=0.25,
        timed_out=False,
        error=None,
        result={"n": 2, "t": 1},
    )
    base.update(overrides)
    return CaseOutcome(**base)


class TestCanonicalKey:
    def test_key_ignores_parameter_order(self):
        a = canonical_key("t", {"x": 1, "y": "s"})
        b = canonical_key("t", {"y": "s", "x": 1})
        assert a == b

    def test_key_distinguishes_task_and_params(self):
        base = canonical_key("t", {"x": 1})
        assert canonical_key("u", {"x": 1}) != base
        assert canonical_key("t", {"x": 2}) != base


class TestOutcomeRecords:
    @pytest.mark.parametrize(
        "outcome",
        [
            _outcome(),
            _outcome(seconds=None, timed_out=True, result=None),
            _outcome(seconds=None, error="boom", result=None),
            _outcome(build_seconds=0.15, check_seconds=0.1),
        ],
    )
    def test_round_trip(self, outcome):
        assert outcome_from_record(outcome_to_record(outcome)) == outcome

    def test_pre_split_records_load_with_no_timing(self):
        # Journals written before the build/check timing split have no
        # timing keys: they must load cleanly and report an absent split.
        record = outcome_to_record(_outcome())
        del record["build_seconds"]
        del record["check_seconds"]
        loaded = outcome_from_record(record)
        assert loaded.build_seconds is None
        assert loaded.check_seconds is None
        assert loaded.result == {"n": 2, "t": 1}


class TestResultStore:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        outcome = _outcome()
        store.record(outcome)
        store.record(_outcome(params={"exchange": "floodset", "num_agents": 3,
                                      "max_faulty": 1}, result={"n": 3}))
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.get(outcome.task, outcome.params) == outcome

    def test_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.record(_outcome(seconds=1.0))
        store.record(_outcome(seconds=2.0))
        reloaded = ResultStore(store.path)
        assert len(reloaded) == 1
        assert reloaded.get(
            "sba-synthesis",
            {"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
        ).seconds == 2.0

    def test_corrupt_journal_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('not json\n' + json.dumps(
            outcome_to_record(_outcome())) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            ResultStore(path)

    @pytest.mark.parametrize("engine", ["symbolic", "set"])
    @pytest.mark.parametrize("where", ["outcome", "spec", "spec-cell"])
    def test_journal_naming_a_removed_engine_raises(self, tmp_path, engine, where):
        """Such a journal is refused, never re-keyed under raw-JSON keys."""
        store = ResultStore(tmp_path / "results.jsonl")
        outcome = _outcome(params={"exchange": "floodset", "num_agents": 2,
                                   "max_faulty": 1, "engine": "bitset"})
        store.record_spec("table1", "Table 1", ("n", "t"),
                          [((2, 1), "floodset-synth", outcome.task, outcome.params)])
        store.record(outcome)
        spec, record = [json.loads(line) for line in store.path.read_text().splitlines()]
        if where == "outcome":
            record["params"]["engine"] = engine
        elif where == "spec":
            spec["engine"] = engine
        else:
            spec["rows"][0]["cells"][0]["params"]["engine"] = engine
        store.path.write_text(json.dumps(spec) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=f"'{engine}' is not a satisfaction engine"):
            ResultStore(store.path)

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        # A kill mid-append leaves a torn last line; the journal must still
        # load every complete record (that is the whole point of the store).
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record(_outcome())
        with path.open("a") as handle:
            handle.write('{"kind": "outcome", "task": "sba-syn')
        reloaded = ResultStore(path)
        assert len(reloaded) == 1

    def test_budget_is_journalled_with_the_outcome(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        outcome = _outcome()
        store.record(outcome, timeout=30.0)
        reloaded = ResultStore(store.path)
        assert reloaded.budget_for(outcome.task, outcome.params) == 30.0

    def test_load_result_requires_spec_record(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.record(_outcome())
        with pytest.raises(ValueError, match="no spec record"):
            store.load_result()


class TestRunTableWithStore:
    SPEC_KWARGS = dict(max_n=2, include_count=False)

    def test_store_round_trip_rerenders_identically(self, tmp_path):
        spec = table1_spec(**self.SPEC_KWARGS)
        store = ResultStore(tmp_path / "t1.jsonl")
        result = run_table(spec, timeout=60.0, store=store, verbose=False)
        reloaded = ResultStore(store.path).load_result()
        assert render_table(reloaded) == render_table(result)
        # The journal is line-oriented JSON: one spec record + one per cell.
        records = [json.loads(line)
                   for line in store.path.read_text().splitlines()]
        assert [r["kind"] for r in records].count("spec") == 1
        assert [r["kind"] for r in records].count("outcome") == len(
            result.outcomes
        )

    @pytest.mark.parametrize("timeout", [60.0, None],
                             ids=["forked", "in-process"])
    def test_cells_journal_their_own_session_metrics(self, tmp_path, timeout):
        # With a budget each cell forks; without one it runs in-process.
        # Either way its journalled snapshot is its own task session's: one
        # result-cache miss, not the process's running total.
        spec = table1_spec(**self.SPEC_KWARGS)
        store = ResultStore(tmp_path / "t1.jsonl")
        run_table(spec, timeout=timeout, store=store, verbose=False)
        lines = store.path.read_text().splitlines()
        outcomes = [r for r in map(json.loads, lines) if r["kind"] == "outcome"]
        assert outcomes
        for record in outcomes:
            lookups = record["metrics"]["repro_session_lookups_total"]
            assert {"labels": {"kind": "result", "outcome": "miss"},
                    "value": 1} in lookups["series"]

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        full_spec = table1_spec(**self.SPEC_KWARGS)
        # Simulate a sweep killed midway: only the first row completed.
        partial_spec = TableSpec(
            name=full_spec.name,
            title=full_spec.title,
            row_header=full_spec.row_header,
            rows=full_spec.rows[:1],
        )
        store = ResultStore(tmp_path / "t1.jsonl")
        run_table(partial_spec, timeout=60.0, store=store, verbose=False)
        completed = set(store.outcomes)

        executed = []
        real_run_case = tables_module.run_case

        def counting_run_case(task, params, **kwargs):
            executed.append(canonical_key(task, params))
            return real_run_case(task, params, **kwargs)

        monkeypatch.setattr(tables_module, "run_case", counting_run_case)
        resumed = run_table(
            full_spec,
            timeout=60.0,
            store=ResultStore(store.path),
            resume=True,
            verbose=False,
        )
        # Every cell is present, but only the second row was executed.
        assert len(resumed.outcomes) == 2 * len(full_spec.columns())
        assert len(executed) == len(full_spec.columns())
        assert not completed.intersection(executed)

    def test_resume_skips_in_parallel_mode_too(self, tmp_path, monkeypatch):
        spec = table1_spec(**self.SPEC_KWARGS)
        store = ResultStore(tmp_path / "t1.jsonl")
        first = run_table(spec, timeout=60.0, workers=2, store=store,
                          verbose=False)

        def exploding_handle(*args, **kwargs):
            raise AssertionError("resume re-ran a completed cell")

        monkeypatch.setattr(tables_module, "CaseHandle", exploding_handle)
        resumed = run_table(
            spec,
            timeout=60.0,
            workers=2,
            store=ResultStore(store.path),
            resume=True,
            verbose=False,
        )
        assert set(resumed.outcomes) == set(first.outcomes)

    def test_resume_retries_to_cells_under_a_larger_budget(self, tmp_path):
        spec = TableSpec(
            name="mini",
            title="Mini",
            row_header=("i",),
            rows=[
                ((0,), [(
                    "synth",
                    "sba-synthesis",
                    {"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
                )])
            ],
        )
        # The params must match the resolved cell exactly (budget and engine
        # included) for the recorded TO to be found.
        to_outcome = CaseOutcome(
            task="sba-synthesis",
            params={"exchange": "floodset", "num_agents": 2, "max_faulty": 1,
                    "max_states": 2_000_000, "engine": "bitset"},
            seconds=None,
            timed_out=True,
        )
        store = ResultStore(tmp_path / "results.jsonl")
        store.record(to_outcome, timeout=0.5)

        # Same (or smaller) budget: the TO is conclusive and is reused.
        reused = run_table(spec, timeout=0.5, store=ResultStore(store.path),
                           resume=True, verbose=False)
        assert reused.cell((0,), "synth") == "TO"

        # Larger budget: the TO must be retried (and now completes).
        retried = run_table(spec, timeout=60.0, store=ResultStore(store.path),
                            resume=True, verbose=False)
        assert retried.cell((0,), "synth") != "TO"

    def test_pre_engine_journals_resume_under_bitset(self, tmp_path):
        """Old journals (no engine in cell params) stay resumable: they were
        recorded under the bitset engine."""
        from repro.harness.tables import table3_spec

        legacy_params = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                         "failures": "crash", "max_states": 2_000_000}
        legacy = CaseOutcome(
            task="eba-synthesis", params=legacy_params, seconds=1.25,
            timed_out=False,
            result={"task": "eba-synthesis", "states": 1, "iterations": 1,
                    "converged": True},
        )
        store = ResultStore(tmp_path / "legacy.jsonl")
        store.record(legacy, timeout=60.0)

        modern_params = dict(legacy_params, engine="bitset")
        reloaded = ResultStore(store.path)
        assert reloaded.get("eba-synthesis", modern_params) is legacy or (
            reloaded.get("eba-synthesis", modern_params).seconds == 1.25
        )
        assert reloaded.budget_for("eba-synthesis", modern_params) == 60.0

        # End to end: resuming the grid reuses the legacy cell.
        resumed = run_table(
            table3_spec(max_n=2), timeout=60.0,
            store=ResultStore(store.path), resume=True, verbose=False,
        )
        assert resumed.outcomes[((2, 1), "emin-crash")].seconds == 1.25

    def test_rerun_without_resume_overwrites(self, tmp_path):
        spec = table1_spec(**self.SPEC_KWARGS)
        store = ResultStore(tmp_path / "t1.jsonl")
        run_table(spec, timeout=60.0, store=store, verbose=False)
        run_table(spec, timeout=60.0, store=ResultStore(store.path),
                  verbose=False)
        reloaded = ResultStore(store.path)
        # Duplicate keys collapse on reload; the rendered table is complete
        # (no "-" cells in the paper-style grid, which ends at the blank line
        # before the timing-split grid).
        assert len(reloaded) == sum(len(cells) for _, cells in spec.rows)
        main_grid = render_table(reloaded.load_result()).split("\n\n")[0]
        assert "-" not in main_grid.split("\n", 3)[3]


class TestScenarioKeyNormalisation:
    """Store keys normalise through Scenario: same configuration, same key."""

    def test_spelled_out_defaults_share_a_key(self):
        terse = {"exchange": "floodset", "num_agents": 2, "max_faulty": 1,
                 "engine": "bitset"}
        spelled = dict(terse, num_values=2, failures="crash",
                       optimal_protocol=False)
        assert canonical_key("sba-model-check", terse) == \
            canonical_key("sba-model-check", spelled)

    def test_engineless_legacy_params_normalise_to_bitset(self):
        modern = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                  "engine": "bitset"}
        legacy = {"exchange": "emin", "num_agents": 2, "max_faulty": 1}
        assert canonical_key("eba-synthesis", legacy) == \
            canonical_key("eba-synthesis", modern)

    def test_unknown_tasks_fall_back_to_raw_json(self):
        key = canonical_key("custom-task", {"y": 2, "x": 1})
        assert key == '["custom-task",{"x":1,"y":2}]'

    def test_pre_redesign_journal_loads_and_reports(self, tmp_path, capsys):
        """A journal written by the pre-Scenario harness (explicit default
        params, pre-normalisation key strings) still resumes and re-renders
        via ``repro report`` — keys are migrated on read."""
        from repro.cli import main

        path = tmp_path / "legacy.jsonl"
        # Key and params exactly as the pre-redesign store wrote them:
        # failures spelled out even at its default, key not normalised.
        legacy_params = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                         "failures": "sending", "max_states": 2_000_000,
                         "engine": "bitset"}
        raw_key = json.dumps(["eba-synthesis", legacy_params],
                             sort_keys=True, separators=(",", ":"))
        spec_record = {
            "kind": "spec", "name": "table3", "title": "Table 3 (legacy)",
            "row_header": ["n", "t"], "engine": "bitset",
            "rows": [{"key": [2, 1], "cells": [
                {"column": "emin-sending", "task": "eba-synthesis",
                 "params": legacy_params}]}],
        }
        outcome_record = {
            "kind": "outcome", "key": raw_key, "task": "eba-synthesis",
            "params": legacy_params, "seconds": 1.5, "timed_out": False,
            "error": None, "timeout": 60.0,
            "result": {"task": "eba-synthesis", "states": 56, "iterations": 3,
                       "converged": True},
        }
        path.write_text(json.dumps(spec_record) + "\n"
                        + json.dumps(outcome_record) + "\n")

        store = ResultStore(path)
        assert len(store) == 1
        # Lookup with the modern minimal params (failures omitted) hits.
        modern = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                  "max_states": 2_000_000, "engine": "bitset"}
        assert store.get("eba-synthesis", modern).seconds == 1.5
        assert store.budget_for("eba-synthesis", modern) == 60.0

        # The CLI report renders the legacy journal without re-running.
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table 3 (legacy)" in out
        assert "emin-sending" in out
        assert "1m" not in out.splitlines()[1]  # header row, sanity

    def test_pre_redesign_journal_resumes_against_a_new_sweep(self, tmp_path):
        """run_table --resume reuses a legacy cell journalled with
        spelled-out default params under the new Scenario keys."""
        legacy_params = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                         "failures": "sending", "max_states": 2_000_000,
                         "engine": "bitset"}
        legacy = CaseOutcome(
            task="eba-synthesis", params=legacy_params, seconds=7.25,
            timed_out=False,
            result={"task": "eba-synthesis", "states": 56, "iterations": 3,
                    "converged": True},
        )
        store = ResultStore(tmp_path / "legacy.jsonl")
        store.record(legacy, timeout=60.0)

        from repro.harness.tables import table3_spec

        resumed = run_table(
            table3_spec(max_n=2), timeout=60.0,
            store=ResultStore(store.path), resume=True, verbose=False,
        )
        assert resumed.outcomes[((2, 1), "emin-sending")].seconds == 7.25
