"""Unit tests for the benchmark harness (runner and tables)."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.bitset import blocks_within
from repro.harness.runner import CaseHandle, CaseOutcome, run_case
from repro.harness.tasks import TASKS
from repro.harness.tables import (
    TableSpec,
    ablation_failure_models,
    ablation_temporal_only,
    render_csv,
    render_json,
    render_table,
    run_table,
    table1_spec,
    table2_spec,
    table3_spec,
)
from repro.obs import profile as obs_profile
from repro.runtime.preload import Preloader

QUICK_CASE = {"exchange": "floodset", "num_agents": 2, "max_faulty": 1}


def _stubborn_sleep(seconds: float = 30.0, engine: str = "bitset") -> dict:
    """A task that ignores SIGTERM — only SIGKILL can stop it early.

    Accepts ``engine`` because the grid engine resolves the table's
    satisfaction engine into every cell's parameters.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(0.05)
    return {}


class TestRunCase:
    def test_execution_returns_result(self):
        outcome = run_case(
            "sba-synthesis",
            {"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
            timeout=60.0,
        )
        assert outcome.ok
        assert outcome.result["n"] == 2
        assert outcome.seconds is not None and outcome.seconds > 0
        assert outcome.cell().startswith("0m")

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            run_case("not-a-task", {})

    def test_error_in_task_is_reported(self):
        outcome = run_case(
            "sba-synthesis",
            {"exchange": "floodset", "num_agents": 2, "max_faulty": 5},
            timeout=60.0,
        )
        assert not outcome.ok
        assert outcome.error is not None
        assert outcome.cell() == "ERR"

    def test_subprocess_execution_and_timeout(self):
        quick = run_case(
            "sba-synthesis",
            {"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
            timeout=60.0,
        )
        assert quick.ok and quick.result is not None

        slow = run_case(
            "sba-synthesis",
            {"exchange": "count", "num_agents": 5, "max_faulty": 5},
            timeout=0.2,
        )
        assert slow.timed_out
        assert slow.cell() == "TO"

    def test_state_budget_is_reported_as_timeout(self):
        outcome = run_case(
            "sba-synthesis",
            {
                "exchange": "floodset",
                "num_agents": 3,
                "max_faulty": 2,
                "max_states": 10,
            },
            timeout=30.0,
        )
        assert outcome.timed_out
        assert outcome.cell() == "TO"

    def test_cell_formatting(self):
        outcome = CaseOutcome(task="x", params={}, seconds=75.5, timed_out=False)
        assert outcome.cell() == "1m15.500"

    def test_cell_formatting_zero_pads_seconds(self):
        # The paper's MmSS.mmm rendering: seconds below ten keep two digits.
        cases = {5.123: "0m05.123", 0.007: "0m00.007", 61.05: "1m01.050",
                 600.0: "10m00.000"}
        for seconds, expected in cases.items():
            outcome = CaseOutcome(task="x", params={}, seconds=seconds,
                                  timed_out=False)
            assert outcome.cell() == expected, seconds


class TestTimingSplit:
    def test_forked_outcome_carries_build_check_split(self):
        outcome = run_case("sba-model-check", dict(QUICK_CASE), timeout=60.0)
        assert outcome.ok
        assert outcome.build_seconds is not None
        assert outcome.check_seconds is not None
        assert outcome.build_seconds + outcome.check_seconds \
            <= outcome.seconds + 0.05

    def test_failed_outcomes_have_no_split(self):
        outcome = run_case(
            "sba-synthesis",
            {"exchange": "floodset", "num_agents": 2, "max_faulty": 5},
            timeout=60.0,
        )
        assert not outcome.ok
        assert outcome.build_seconds is None
        assert outcome.check_seconds is None


class TestRunnerResourceHandling:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc fd accounting"
    )
    def test_many_cases_do_not_leak_fds(self):
        # Warm up lazy multiprocessing machinery (resource tracker etc.)
        # before taking the baseline.
        run_case("sba-synthesis", QUICK_CASE, timeout=30.0)
        run_case("sba-synthesis", dict(QUICK_CASE, max_states=1), timeout=30.0)
        baseline = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            outcome = run_case("sba-synthesis", QUICK_CASE, timeout=30.0)
            assert outcome.ok
        # A timed-out cell must release its pipe and process too.
        slow = run_case(
            "sba-synthesis",
            {"exchange": "count", "num_agents": 5, "max_faulty": 5},
            timeout=0.2,
        )
        assert slow.timed_out
        # 21 leaky cells would show as ~40 extra fds; allow slack of two for
        # unrelated interpreter jitter.
        assert len(os.listdir("/proc/self/fd")) <= baseline + 2
        assert multiprocessing.active_children() == []

    def test_seconds_measured_in_child_not_at_harvest(self):
        # The scheduler may harvest long after the child exits (e.g. while
        # escalating a sibling's kill); the reported time must be the
        # child's own measurement, not the harvest delay.
        handle = CaseHandle("sba-synthesis", dict(QUICK_CASE), timeout=60.0)
        handle.join(30.0)
        time.sleep(1.0)  # simulate a busy scheduler
        outcome = handle.harvest()
        assert outcome.ok
        assert outcome.seconds < 0.9

    def test_timeout_escalates_to_kill_on_sigterm_ignoring_child(
        self, monkeypatch
    ):
        # The fork context lets the child inherit the patched registry.
        monkeypatch.setitem(TASKS, "stubborn-sleep", _stubborn_sleep)
        start = time.monotonic()
        outcome = run_case(
            "stubborn-sleep", {"seconds": 30.0}, timeout=0.2, term_grace=0.5
        )
        elapsed = time.monotonic() - start
        assert outcome.timed_out
        assert outcome.cell() == "TO"
        assert elapsed < 10.0, f"kill escalation took {elapsed:.1f}s"
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_sending_is_an_error(self, monkeypatch):
        def _vanish(engine: str = "bitset") -> dict:
            os._exit(3)

        monkeypatch.setitem(TASKS, "vanish", _vanish)
        outcome = run_case("vanish", {}, timeout=30.0)
        assert not outcome.timed_out
        assert outcome.error == "worker produced no result"
        assert outcome.cell() == "ERR"
        assert multiprocessing.active_children() == []

    def test_outcome_larger_than_the_pipe_buffer_comes_back(self, monkeypatch):
        # The child blocks in send() until the parent reads, so a parent
        # that waited for the child to exit first would report it TO.
        text = "x" * 70_000

        def _large(engine: str = "bitset") -> dict:
            return {"text": text}

        monkeypatch.setitem(TASKS, "large-outcome", _large)
        spec = TableSpec(name="large", title="Large outcome", row_header=("i",),
                         rows=[((0,), [("large", "large-outcome", {})])])
        for run in (
            lambda: run_case("large-outcome", {}, timeout=3.0),
            lambda: run_table(spec, timeout=3.0, max_states=None, workers=1,
                              share_spaces=False).outcomes[((0,), "large")],
        ):
            start = time.monotonic()
            outcome = run()
            assert outcome.ok, outcome
            assert outcome.result == {"text": text}
            assert time.monotonic() - start < 2.0
        assert multiprocessing.active_children() == []


class TestBudgetValidation:
    @pytest.mark.parametrize("timeout", [0, -5.0])
    def test_non_positive_timeouts_are_refused_before_any_work(
        self, monkeypatch, timeout
    ):
        started = []
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            lambda process: started.append("fork"))
        monkeypatch.setattr(Preloader, "ensure",
                            lambda *args, **kwargs: started.append("preload"))
        for refused in (
            lambda: run_case("sba-synthesis", dict(QUICK_CASE), timeout=timeout),
            lambda: CaseHandle("sba-synthesis", dict(QUICK_CASE), timeout=timeout),
            lambda: run_table(ablation_temporal_only(max_n=3), timeout=timeout),
        ):
            with pytest.raises(ValueError, match="timeout must be positive"):
                refused()
        assert started == []


@pytest.fixture
def profiler_off():
    obs_profile.disable()
    yield
    obs_profile.disable()


class TestCellProfile:
    @staticmethod
    def _kernel_calls(outcome: CaseOutcome) -> int:
        assert outcome.ok, outcome.error
        return outcome.profile["kernels"]["bitset.blocks_within"]["calls"]

    def test_profile_holds_only_the_cells_own_kernel_calls(
        self, monkeypatch, profiler_off
    ):
        monkeypatch.setenv(obs_profile.ENV_VAR, "1")
        first = run_case("sba-model-check", dict(QUICK_CASE), timeout=60.0)
        calls = self._kernel_calls(first)
        assert calls > 0
        # Kernel calls the parent made before forking are not the cell's.
        obs_profile.enable()
        for _ in range(500):
            blocks_within([0b01, 0b10], -1, 0b01)
        assert obs_profile.summary()["kernels"]["bitset.blocks_within"][
            "calls"] == 500
        second = run_case("sba-model-check", dict(QUICK_CASE), timeout=60.0)
        assert self._kernel_calls(second) == calls

    def test_profile_is_none_when_profiling_is_off(
        self, monkeypatch, profiler_off
    ):
        monkeypatch.delenv(obs_profile.ENV_VAR, raising=False)
        outcome = run_case("sba-model-check", dict(QUICK_CASE), timeout=60.0)
        assert outcome.ok
        assert outcome.profile is None


class TestTableSpecs:
    def test_table1_spec_structure(self):
        spec = table1_spec(max_n=3)
        assert spec.name == "table1"
        row_keys = [key for key, _ in spec.rows]
        assert (2, 1) in row_keys and (3, 3) in row_keys
        assert (4, 1) not in row_keys
        assert spec.columns() == [
            "floodset-mc",
            "floodset-synth",
            "count-mc",
            "count-synth",
        ]

    def test_table1_without_count(self):
        spec = table1_spec(max_n=2, include_count=False)
        assert spec.columns() == ["floodset-mc", "floodset-synth"]

    def test_table2_spec_round_grid(self):
        spec = table2_spec(max_n=2)
        row_keys = [key for key, _ in spec.rows]
        assert (2, 1, 1) in row_keys and (2, 2, 3) in row_keys
        assert all(rounds <= t + 1 for (_, t, rounds) in row_keys)
        assert spec.columns() == ["diff-mc", "dwork-moses-mc"]

    def test_table3_spec_columns(self):
        spec = table3_spec(max_n=2)
        assert spec.columns() == [
            "emin-crash",
            "emin-sending",
            "ebasic-crash",
            "ebasic-sending",
        ]

    def test_ablation_specs(self):
        assert ablation_temporal_only(max_n=3).rows
        assert ablation_failure_models(max_n=2).rows


class TestRunAndRenderTable:
    def test_small_table_runs_and_renders(self):
        spec = TableSpec(
            name="mini",
            title="Mini table",
            row_header=("n", "t"),
            rows=[
                (
                    (2, 1),
                    [
                        (
                            "floodset-synth",
                            "sba-synthesis",
                            {"exchange": "floodset", "num_agents": 2, "max_faulty": 1},
                        )
                    ],
                )
            ],
        )
        result = run_table(spec, timeout=60.0, verbose=False)
        rendered = render_table(result)
        assert "Mini table" in rendered
        assert "floodset-synth" in rendered
        assert "TO" not in rendered

    def test_missing_cell_renders_dash(self):
        spec = table1_spec(max_n=2)
        from repro.harness.tables import TableResult

        empty = TableResult(spec=spec)
        rendered = render_table(empty)
        assert "-" in rendered

    def test_structured_exporters(self):
        import json

        spec = table1_spec(max_n=2, include_count=False)
        result = run_table(spec, timeout=60.0, verbose=False)
        payload = json.loads(render_json(result))
        assert payload["table"] == "table1"
        assert payload["columns"] == ["floodset-mc", "floodset-synth"]
        assert all(
            cell["seconds"] is not None
            for row in payload["rows"]
            for cell in row["cells"].values()
        )
        csv_lines = render_csv(result).strip().splitlines()
        assert csv_lines[0] == (
            "n,t,floodset-mc,floodset-mc build_s,floodset-mc check_s,"
            "floodset-synth,floodset-synth build_s,floodset-synth check_s"
        )
        assert len(csv_lines) == 1 + len(spec.rows)


class TestParallelRunTable:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_table(table1_spec(max_n=2), workers=0)

    def test_parallel_matches_sequential_cell_for_cell(self):
        spec = table1_spec(max_n=2)
        sequential = run_table(spec, timeout=120.0, workers=1, verbose=False)
        parallel = run_table(spec, timeout=120.0, workers=4, verbose=False)
        assert set(sequential.outcomes) == set(parallel.outcomes)
        for key, seq_outcome in sequential.outcomes.items():
            par_outcome = parallel.outcomes[key]
            assert par_outcome.result == seq_outcome.result, key
            assert par_outcome.timed_out == seq_outcome.timed_out, key
            assert par_outcome.error == seq_outcome.error, key

    def test_parallel_timeout_cells_render_to(self, monkeypatch):
        monkeypatch.setitem(TASKS, "stubborn-sleep", _stubborn_sleep)
        spec = TableSpec(
            name="mini-to",
            title="Timeout mini table",
            row_header=("i",),
            rows=[
                ((i,), [("sleep", "stubborn-sleep", {"seconds": 30.0 + i})])
                for i in range(3)
            ],
        )
        start = time.monotonic()
        result = run_table(
            spec, timeout=0.2, max_states=None, workers=3, term_grace=0.5
        )
        elapsed = time.monotonic() - start
        assert [result.cell((i,), "sleep") for i in range(3)] == ["TO"] * 3
        assert elapsed < 15.0
        assert multiprocessing.active_children() == []
