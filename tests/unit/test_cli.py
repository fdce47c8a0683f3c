"""Unit tests for the command-line interface."""

import pytest

from repro.api import Scenario, Session
from repro.cli import build_parser, main
from repro.core.cover import assignment_to_index
from repro.core.espresso import espresso_minimise
from repro.core.minimize import minimise


class TestParser:
    def test_table_commands_have_budget_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--max-n", "3", "--timeout", "5"])
        assert args.command == "table1"
        assert args.max_n == 3
        assert args.timeout == 5.0

    def test_synthesize_command_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["synthesize", "--exchange", "floodset", "--agents", "3", "--faulty", "1"]
        )
        assert args.exchange == "floodset"
        assert args.agents == 3

    def test_missing_command_errors(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table_commands_have_grid_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table3", "--workers", "4", "--output", "out.jsonl", "--resume",
             "--format", "csv"]
        )
        assert args.workers == 4
        assert args.output == "out.jsonl"
        assert args.resume is True
        assert args.format == "csv"

    def test_workers_defaults_to_cpu_count(self):
        from repro.cli import default_workers

        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.workers == default_workers() >= 1

    def test_failures_flag_is_validated(self):
        parser = build_parser()
        args = parser.parse_args(
            ["synthesize", "--exchange", "emin", "--agents", "2", "--faulty",
             "1", "--failures", "general"]
        )
        assert args.failures == "general"
        for command in (["synthesize"], ["check"]):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    command
                    + ["--exchange", "emin", "--agents", "2", "--faulty", "1",
                       "--failures", "byzantine"]
                )

    def test_engine_flag_is_gone(self, capsys):
        parser = build_parser()
        for command in (
            ["table1"],
            ["table2"],
            ["table3"],
            ["ablation-temporal"],
            ["ablation-failures"],
            ["synthesize", "--exchange", "floodset", "--agents", "2",
             "--faulty", "1"],
            ["check", "--exchange", "floodset", "--agents", "2", "--faulty", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(command + ["--engine", "bitset"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_store_pickle_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--store-pickle"])
        assert excinfo.value.code == 2
        assert "--store-pickle" in capsys.readouterr().err

    def test_minimise_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", "--exchange", "floodset", "--agents", "3",
                  "--faulty", "1", "--minimise", "qm"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --minimise" in capsys.readouterr().err


class TestCommands:
    def test_synthesize_sba_prints_conditions(self, capsys):
        code = main(
            ["synthesize", "--exchange", "floodset", "--agents", "3", "--faulty", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "values_received[0]" in captured.out

    def test_synthesize_eba_prints_conditions(self, capsys):
        code = main(
            [
                "synthesize",
                "--exchange",
                "emin",
                "--agents",
                "2",
                "--faulty",
                "1",
                "--failures",
                "sending",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "decide0" in captured.out or "decide" in captured.out

    def test_synthesize_forced_backends_agree(self):
        # The configuration the command prints, with each backend run on the
        # same truth tables: covers may differ, but the reported condition
        # structure must stay recognisable.
        scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        conditions = Session().synthesis_artifact(scenario).conditions
        qm_out, espresso_out = [], []
        for predicate in conditions.conditions.values():
            names, table = predicate._boolean_table()
            on_set = [assignment_to_index(row) for row, value in table.items() if value]
            off_set = [assignment_to_index(row) for row, value in table.items() if not value]
            specified = set(on_set) | set(off_set)
            dont_cares = [index for index in range(2 ** len(names)) if index not in specified]
            qm_out.append(minimise(len(names), on_set, dont_cares).render(names))
            espresso_out.append(espresso_minimise(len(names), on_set, off_set).render(names))
        assert "values_received[0]" in "\n".join(qm_out)
        assert "values_received[0]" in "\n".join(espresso_out)

    def test_synthesize_unknown_exchange_fails(self, capsys):
        code = main(
            ["synthesize", "--exchange", "bogus", "--agents", "2", "--faulty", "1"]
        )
        assert code == 2

    def test_check_command_reports_result(self, capsys):
        code = main(
            [
                "check",
                "--exchange",
                "floodset",
                "--agents",
                "3",
                "--faulty",
                "2",
                "--timeout",
                "120",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "optimal" in captured.out
        assert "False" in captured.out  # the standard protocol is not optimal

    def test_table_command_small_grid(self, capsys):
        code = main(["table1", "--max-n", "2", "--timeout", "60", "--quiet"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 1" in captured.out
        assert "floodset-synth" in captured.out

    def test_synthesize_eba_defaults_to_sending_omissions(self, capsys):
        # Table 3's EBA experiments and the task defaults use sending
        # omissions; the CLI must agree when --failures is not given.
        code = main(["synthesize", "--exchange", "emin", "--agents", "2",
                     "--faulty", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "sending failures" in captured.out

    def test_synthesize_sba_defaults_to_crash(self, capsys):
        code = main(["synthesize", "--exchange", "floodset", "--agents", "2",
                     "--faulty", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "crash failures" in captured.out

    def test_check_eba_defaults_to_sending_omissions(self, capsys):
        code = main(["check", "--exchange", "emin", "--agents", "2",
                     "--faulty", "1", "--timeout", "120"])
        captured = capsys.readouterr()
        assert code == 0
        assert "failures: sending" in captured.out

    def test_table_command_with_output_and_report(self, capsys, tmp_path):
        results = tmp_path / "t1.jsonl"
        code = main(["table1", "--max-n", "2", "--timeout", "60", "--quiet",
                     "--workers", "2", "--output", str(results)])
        table_out = capsys.readouterr().out
        assert code == 0
        assert results.exists()

        code = main(["report", str(results)])
        report_out = capsys.readouterr().out
        assert code == 0
        assert report_out.strip() == table_out.strip()

        code = main(["report", str(results), "--format", "csv"])
        csv_out = capsys.readouterr().out
        assert code == 0
        assert csv_out.splitlines()[0] == (
            "n,t,floodset-mc,floodset-mc build_s,floodset-mc check_s,"
            "floodset-synth,floodset-synth build_s,floodset-synth check_s,"
            "count-mc,count-mc build_s,count-mc check_s,"
            "count-synth,count-synth build_s,count-synth check_s"
        )

        code = main(["report", str(results), "--format", "json"])
        json_out = capsys.readouterr().out
        assert code == 0
        assert '"table": "table1"' in json_out

    def test_journal_records_the_bitset_engine(self, capsys, tmp_path):
        """The engine stays in the spec record, every cell key, and the report."""
        import json

        results = tmp_path / "t3.jsonl"
        code = main(["table3", "--max-n", "2", "--timeout", "60", "--quiet",
                     "--output", str(results)])
        capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        spec_records = [r for r in records if r["kind"] == "spec"]
        assert spec_records and all(r["engine"] == "bitset" for r in spec_records)
        outcome_records = [r for r in records if r["kind"] == "outcome"]
        assert outcome_records
        for record in outcome_records:
            assert record["params"]["engine"] == "bitset"
            assert '"engine":"bitset"' in record["key"]

        code = main(["report", str(results), "--format", "json"])
        report_out = capsys.readouterr().out
        assert code == 0
        assert '"engine": "bitset"' in report_out

    @pytest.mark.parametrize("engine", ["symbolic", "set"])
    @pytest.mark.parametrize("where", ["outcome", "spec"])
    def test_journal_naming_a_removed_engine_exits_2(
        self, capsys, tmp_path, engine, where
    ):
        """report and --resume refuse the journal instead of re-keying it."""
        import json

        params = {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                  "failures": "crash", "max_states": 2_000_000,
                  "engine": engine if where == "outcome" else "bitset"}
        spec = {"kind": "spec", "name": "table3", "title": "Table 3",
                "row_header": ["n", "t"],
                "engine": engine if where == "spec" else "bitset",
                "rows": [{"key": [2, 1], "cells": [
                    {"column": "emin-crash", "task": "eba-synthesis",
                     "params": dict(params, engine="bitset")}]}]}
        outcome = {"kind": "outcome", "key": "k", "task": "eba-synthesis",
                   "params": params, "seconds": 0.01, "timed_out": False,
                   "error": None, "result": {"states": 8}, "timeout": 60.0}
        journal = tmp_path / "old.jsonl"
        text = json.dumps(spec) + "\n" + json.dumps(outcome) + "\n"
        journal.write_text(text)

        code = main(["report", str(journal)])
        assert code == 2
        assert f"'{engine}' is not a satisfaction engine" in capsys.readouterr().err
        code = main(["table3", "--max-n", "2", "--timeout", "60", "--quiet",
                     "--output", str(journal), "--resume"])
        assert code == 2
        assert f"'{engine}' is not a satisfaction engine" in capsys.readouterr().err
        assert journal.read_text() == text

    def test_table_command_refuses_a_zero_timeout(self, capsys):
        code = main(["table1", "--max-n", "2", "--timeout", "0", "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert "timeout must be positive" in captured.err
        assert captured.out == ""

    def test_check_command_refuses_a_negative_timeout(self, capsys):
        code = main(["check", "--exchange", "floodset", "--agents", "2",
                     "--faulty", "1", "--timeout", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "timeout must be positive" in captured.err
        assert "result:" not in captured.out

    def test_resume_requires_output(self, capsys):
        code = main(["table1", "--max-n", "2", "--resume", "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--output" in captured.err

    def test_report_missing_file_fails(self, capsys):
        code = main(["report", "/nonexistent/results.jsonl"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no results file" in captured.err

    def test_corrupt_journal_exits_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('not json\n{"also": "not a record"}\n')
        code = main(["report", str(corrupt)])
        assert code == 2
        assert "corrupt" in capsys.readouterr().err
        code = main(["table1", "--max-n", "2", "--quiet",
                     "--output", str(corrupt)])
        assert code == 2
        assert "corrupt" in capsys.readouterr().err


class TestServeParser:
    def test_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.cache_size == 64
        assert args.quiet is False

    def test_serve_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--cache-size", "8", "--quiet"]
        )
        assert (args.host, args.port, args.cache_size, args.quiet) == \
            ("0.0.0.0", 9000, 8, True)

    def test_serve_rejects_a_nonpositive_cache(self, capsys):
        code = main(["serve", "--cache-size", "0"])
        assert code == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_serve_worker_and_store_bound_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--workers", "4", "--store", "/tmp/store",
             "--store-max-bytes", "1048576", "--store-max-entries", "500"]
        )
        assert args.workers == 4
        assert args.store == "/tmp/store"
        assert args.store_max_bytes == 1048576
        assert args.store_max_entries == 500

    def test_serve_defaults_to_one_worker_and_unbounded_store(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 1
        assert args.store_max_bytes is None
        assert args.store_max_entries is None

    def test_serve_rejects_nonpositive_workers(self, capsys):
        code = main(["serve", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_store_bounds_require_a_store(self, capsys):
        code = main(["serve", "--store-max-bytes", "1024"])
        assert code == 2
        assert "--store" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_store_bounds(self, capsys):
        code = main(["serve", "--store", "/tmp/store",
                     "--store-max-entries", "0"])
        assert code == 2
        assert "--store-max-entries" in capsys.readouterr().err


class TestStoreCommand:
    @staticmethod
    def _populated_store(tmp_path):
        from repro.api import ArtefactStore, Scenario
        from repro.api.results import CheckResult

        store = ArtefactStore(tmp_path / "store")
        result = CheckResult(
            task="sba-model-check", engine="bitset", exchange="floodset",
            failures="crash", num_agents=2, max_faulty=1, states=7,
            spec={"validity": True},
        )
        for agents in (2, 3, 4):
            scenario = Scenario(exchange="floodset", num_agents=agents,
                                max_faulty=1)
            store.put_result("check", scenario.canonical_json(),
                             result.to_json())
        return store

    def test_store_stats_prints_disk_usage(self, capsys, tmp_path):
        self._populated_store(tmp_path)
        code = main(["store", "stats", str(tmp_path / "store")])
        assert code == 0
        import json

        stats = json.loads(capsys.readouterr().out)
        assert stats["total"]["entries"] == 3
        assert stats["total"]["bytes"] > 0

    def test_store_compact_trims_to_the_bound(self, capsys, tmp_path):
        self._populated_store(tmp_path)
        code = main(["store", "compact", str(tmp_path / "store"),
                     "--max-entries", "1"])
        assert code == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == 1
        assert summary["removed"] == 2

    def test_store_compact_requires_a_bound(self, capsys, tmp_path):
        self._populated_store(tmp_path)
        code = main(["store", "compact", str(tmp_path / "store")])
        assert code == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_store_commands_reject_a_missing_directory(self, capsys, tmp_path):
        code = main(["store", "stats", str(tmp_path / "nope")])
        assert code == 2
        assert "no store directory" in capsys.readouterr().err

    def test_store_compact_rejects_a_nonpositive_bound(self, capsys, tmp_path):
        self._populated_store(tmp_path)
        code = main(["store", "compact", str(tmp_path / "store"),
                     "--max-bytes", "0"])
        assert code == 2
        assert "--max-bytes" in capsys.readouterr().err


class TestSharedComputePlaneFlags:
    def test_share_spaces_defaults_on_with_an_off_switch(self):
        parser = build_parser()
        assert parser.parse_args(["table1"]).share_spaces is True
        assert parser.parse_args(
            ["table1", "--share-spaces"]).share_spaces is True
        assert parser.parse_args(
            ["table2", "--no-share-spaces"]).share_spaces is False

    def test_serve_accepts_a_preload_frontier(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--preload", "table1:max-n=4"])
        assert args.preload == "table1:max-n=4"
        assert parser.parse_args(["serve"]).preload is None

    def test_serve_rejects_a_bad_preload_spec_before_binding(self, capsys):
        code = main(["serve", "--preload", "table9"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown preload frontier" in captured.err + captured.out

    def test_table_grid_runs_with_sharing_disabled(self, capsys):
        code = main(["table1", "--max-n", "2", "--timeout", "60", "--quiet",
                     "--no-share-spaces"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out
