"""Table definitions and the grid engine for the paper's experiments.

Each :class:`TableSpec` describes one of the paper's tables (or one of our
ablations) as a list of rows, where every row contains the varied parameters
and one or more cells; every cell is an experiment task run with a wall-clock
budget.  :func:`run_table` executes a spec on a pool of ``workers``
concurrent forked children (one worker is a sequential sweep), optionally
journalling every completed cell to a
:class:`~repro.harness.store.ResultStore` and skipping cells the store
already holds (``resume=True``) — and :func:`render_table`,
:func:`render_json` and :func:`render_csv` render the outcome in the same
row/column structure the paper uses.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scenario, TableCell
from repro.engines import DEFAULT_ENGINE
from repro.harness.runner import (
    TERM_GRACE_SECONDS,
    CaseHandle,
    CaseOutcome,
    validate_timeout,
)
from repro.harness.store import ResultStore
from repro.runtime.guard import wall_clock_limit
from repro.runtime.plan import SpacePlan, cell_space_plan
from repro.runtime.preload import Preloader

#: A cell: (column label, task name, task parameters).
CellSpec = Tuple[str, str, Dict[str, object]]


@dataclass
class TableSpec:
    """A benchmark table: a title, row labels and per-row cells."""

    name: str
    title: str
    row_header: Sequence[str]
    rows: List[Tuple[Tuple, List[CellSpec]]] = field(default_factory=list)

    def columns(self) -> List[str]:
        """The distinct column labels, in first-appearance order."""
        seen: List[str] = []
        for _, cells in self.rows:
            for label, _, _ in cells:
                if label not in seen:
                    seen.append(label)
        return seen


@dataclass
class TableResult:
    """The outcome of running a :class:`TableSpec`."""

    spec: TableSpec
    outcomes: Dict[Tuple[Tuple, str], CaseOutcome] = field(default_factory=dict)

    def cell(self, row_key: Tuple, column: str) -> str:
        """The rendered cell for a row key and column label."""
        outcome = self.outcomes.get((row_key, column))
        return outcome.cell() if outcome is not None else "-"


def _resolved_cells(
    spec: TableSpec, max_states: Optional[int]
) -> List[Tuple[Tuple, str, str, Dict[str, object]]]:
    """Flatten a spec into (row key, column, task, resolved params) cells.

    Every cell is resolved through a validated
    :class:`~repro.api.Scenario`: the engine and the state budget are
    merged in, and the scenario's canonical parameter form
    (:meth:`Scenario.to_params`) becomes the cell's resolved params — so a
    malformed spec fails before any child forks, and two specs that spell
    the same configuration differently journal under the same key.
    """
    from repro.api.scenario import TASK_FIELDS

    cells = []
    for row_key, row_cells in spec.rows:
        for column, task, params in row_cells:
            case_params = dict(params)
            if max_states is not None and "max_states" not in case_params:
                case_params["max_states"] = max_states
            case_params.setdefault("engine", DEFAULT_ENGINE)
            if task in TASK_FIELDS:
                scenario = Scenario.from_task_params(task, case_params)
                case_params = scenario.to_params(task)
            # Ad-hoc tasks registered straight into TASKS (tests, forks) keep
            # their raw parameters; only the scenario tasks are canonicalised.
            cells.append((row_key, column, task, case_params))
    return cells


class _Progress:
    """Per-cell progress lines; all printing happens in the scheduler process,
    so concurrent workers never interleave partial lines."""

    def __init__(self, spec_name: str, total: int, verbose: bool) -> None:
        self.spec_name = spec_name
        self.total = total
        self.done = 0
        self.verbose = verbose

    def report(self, row_key: Tuple, column: str, outcome: CaseOutcome,
               cached: bool = False) -> None:
        self.done += 1
        if not self.verbose:
            return
        suffix = "  (cached)" if cached else ""
        print(
            f"  [{self.done}/{self.total}] {self.spec_name} {row_key} "
            f"{column}: {outcome.cell()}{suffix}",
            flush=True,
        )


class _SharedSpaces:
    """The scheduler's side of the compute plane: group, preload, release.

    Pending cells are regrouped so that cells reading the same
    :class:`~repro.runtime.plan.SpaceKey` run consecutively; the first cell
    of a group triggers one parent-side build at the *largest* horizon any
    cell of the group needs (guarded by the per-cell wall-clock budget), the
    group's children inherit the artefacts copy-on-write, and the artefacts
    are released as soon as the group's last cell has forked, so the
    parent's footprint stays one group wide.  A preload that busts the
    budget — or fails in any other way — downgrades its whole group to the
    per-cell rebuild path rather than failing the cells.
    """

    def __init__(
        self, pending: List[Tuple], timeout: Optional[float], verbose: bool
    ) -> None:
        self.preloader = Preloader()
        self.timeout = timeout
        self.verbose = verbose
        self._failed: set = set()
        self._remaining: Dict[object, int] = {}
        self._scenarios: Dict[object, Scenario] = {}
        self._horizons: Dict[object, int] = {}
        self.plans: Dict[int, Optional[SpacePlan]] = {}

        group_order: Dict[object, int] = {}
        annotated = []
        for position, cell in enumerate(pending):
            _, _, task, case_params = cell
            plan = cell_space_plan(task, case_params)
            if plan is None:
                # Unshareable cells (synthesis, ad-hoc tasks) keep their
                # relative order but form no group.
                token: object = ("solo", position)
            else:
                token = plan.key
                self._remaining[plan.key] = self._remaining.get(plan.key, 0) + 1
                horizon = self._horizons.get(plan.key)
                if horizon is None or plan.horizon > horizon:
                    self._horizons[plan.key] = plan.horizon
                    self._scenarios[plan.key] = Scenario.from_task_params(
                        task, dict(case_params)
                    )
            group_order.setdefault(token, len(group_order))
            annotated.append((group_order[token], position, cell, plan))
        annotated.sort(key=lambda item: (item[0], item[1]))
        self.schedule = [cell for _, _, cell, _ in annotated]
        self.plans = {
            index: plan for index, (_, _, _, plan) in enumerate(annotated)
        }

    def preloader_for(self, index: int) -> Optional[Preloader]:
        """The preloader a cell's child should inherit (preloading lazily).

        The parent-side build is bounded by the per-cell wall-clock budget:
        a space too big to build within one cell's budget would make every
        cell of its group TO anyway, so the group falls back to per-cell
        rebuilds (which report the TOs with the usual machinery).
        """
        plan = self.plans.get(index)
        if plan is None or plan.key in self._failed:
            return None
        if plan.key not in self.preloader:
            scenario = self._scenarios[plan.key]
            horizon = self._horizons[plan.key]
            label = (
                f"space preload for {scenario.exchange} "
                f"n={scenario.num_agents} t={scenario.max_faulty}"
            )
            started = time.perf_counter()
            try:
                with wall_clock_limit(self.timeout, label=label):
                    artefacts = self.preloader.ensure(scenario, horizon=horizon)
            except Exception:
                # WallClockExceeded (budget), MemoryError, anything else: the
                # group runs on the per-cell rebuild path instead of failing.
                self._failed.add(plan.key)
                self.preloader.release(plan.key)
                return None
            if self.verbose:
                states = (
                    artefacts.space.num_states()
                    if artefacts.space is not None else 0
                )
                print(
                    f"  [preload] {scenario.exchange} n={scenario.num_agents} "
                    f"t={scenario.max_faulty}: {states} states to horizon "
                    f"{artefacts.built_horizon} in "
                    f"{time.perf_counter() - started:.2f}s",
                    flush=True,
                )
        return self.preloader

    def forked(self, index: int) -> None:
        """Note that a cell has forked (or run); release drained groups."""
        plan = self.plans.get(index)
        if plan is None:
            return
        self._remaining[plan.key] -= 1
        if self._remaining[plan.key] <= 0:
            self.preloader.release(plan.key)


def run_table(
    spec: TableSpec,
    timeout: Optional[float] = 60.0,
    max_states: Optional[int] = 2_000_000,
    verbose: bool = False,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    term_grace: float = TERM_GRACE_SECONDS,
    share_spaces: bool = True,
) -> TableResult:
    """Run every cell of a table spec with the given budgets.

    Up to ``workers`` cells run at once, each in its own forked child, with
    the per-cell wall-clock budget enforced by the scheduler.
    ``timeout=None`` sets no budget; a budget that is not positive raises
    ``ValueError`` before anything forks.  A ``store`` journals every
    completed cell immediately; with ``resume=True`` cells whose canonical
    key the store already holds are reused instead of re-run, so an
    interrupted sweep loses at most the cells that were in flight.

    With ``share_spaces`` (the default) model-checking cells that read the
    same literature-protocol space are grouped and served from one
    parent-side build forked copy-on-write into each child, instead of every
    child rebuilding the space from scratch.  A shared cell's time then
    excludes its group's space build: the build is reported on the
    ``[preload]`` progress line, and the cell journals ``build_seconds`` 0.
    ``share_spaces=False`` gives per-cell times that include the build, as
    in the paper's one-run-per-cell protocol.  Outcomes are identical either
    way — a preloaded space is byte-for-byte the space the cell would have
    built (see :mod:`repro.runtime.plan`) — only the times change.  While
    the parent is building a group's space, harvesting of in-flight cells is
    delayed: a cell past its deadline is killed correspondingly late, but
    its recorded time is the child's own measurement, so the delay never
    inflates reported numbers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    validate_timeout(timeout)
    result = TableResult(spec=spec)
    cells = _resolved_cells(spec, max_states)
    if store is not None:
        store.record_spec(spec.name, spec.title, spec.row_header, cells)

    def reusable(stored: CaseOutcome, stored_budget: Optional[float]) -> bool:
        # A completed (or errored) cell is conclusive under any budget; a TO
        # is only conclusive if it was taken under at least the current
        # budget — resuming with a larger --timeout must retry TO cells.
        if not stored.timed_out:
            return True
        return (
            timeout is not None
            and stored_budget is not None
            and stored_budget >= timeout
        )

    progress = _Progress(spec.name, len(cells), verbose)
    pending: List[Tuple[Tuple, str, str, Dict[str, object]]] = []
    for row_key, column, task, case_params in cells:
        stored = store.get(task, case_params) if store is not None and resume else None
        if stored is not None and reusable(stored, store.budget_for(task, case_params)):
            result.outcomes[(row_key, column)] = stored
            progress.report(row_key, column, stored, cached=True)
        else:
            pending.append((row_key, column, task, case_params))

    def record(row_key: Tuple, column: str, outcome: CaseOutcome) -> None:
        result.outcomes[(row_key, column)] = outcome
        if store is not None:
            store.record(outcome, timeout=timeout)
        progress.report(row_key, column, outcome)

    shared = (
        _SharedSpaces(pending, timeout, verbose) if share_spaces else None
    )
    if shared is not None:
        pending = shared.schedule

    # Worker-pool scheduler: keep up to ``workers`` forked children in
    # flight; wake on a child's outcome or exit (its waitables) or the
    # earliest deadline, harvest whatever finished or busted its budget,
    # then refill.
    in_flight: Dict[Tuple[Tuple, str], CaseHandle] = {}
    next_cell = 0
    while next_cell < len(pending) or in_flight:
        while next_cell < len(pending) and len(in_flight) < workers:
            row_key, column, task, case_params = pending[next_cell]
            preloaded = (
                shared.preloader_for(next_cell) if shared is not None else None
            )
            in_flight[(row_key, column)] = CaseHandle(
                task, case_params, timeout=timeout, term_grace=term_grace,
                preloaded=preloaded,
            )
            if shared is not None:
                shared.forked(next_cell)
            next_cell += 1
        now = time.perf_counter()
        deadlines = [
            handle.deadline - now
            for handle in in_flight.values()
            if handle.deadline is not None
        ]
        wait_for = max(0.0, min(deadlines)) if deadlines else None
        wait(
            [waitable for handle in in_flight.values()
             for waitable in handle.waitables],
            timeout=wait_for,
        )
        for key in list(in_flight):
            outcome = in_flight[key].poll()
            if outcome is not None:
                del in_flight[key]
                record(key[0], key[1], outcome)
    return result


def _timing_split(outcome: Optional[CaseOutcome]) -> Optional[str]:
    """``build+check`` seconds for one cell, or None when not recorded."""
    if (
        outcome is None
        or outcome.build_seconds is None
        or outcome.check_seconds is None
    ):
        return None
    return f"{outcome.build_seconds:.3f}+{outcome.check_seconds:.3f}"


def _has_timing(result: TableResult) -> bool:
    return any(
        _timing_split(outcome) is not None
        for outcome in result.outcomes.values()
    )


def _render_grid(title: str, header: List[str], body: List[List[str]]) -> str:
    widths = [len(name) for name in header]
    for row in body:
        for position, value in enumerate(row):
            widths[position] = max(widths[position], len(value))
    lines = [title]
    lines.append("  ".join(name.ljust(widths[i]) for i, name in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in body:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def render_table(result: TableResult) -> str:
    """Render a table result as aligned text (paper-style rows and columns).

    When any cell recorded the build/check timing split, a second grid with
    per-cell ``build+check`` seconds follows the paper-style one (build =
    shareable model + space construction, check = everything else).
    """
    spec = result.spec
    columns = spec.columns()
    header = list(spec.row_header) + columns
    body: List[List[str]] = []
    for row_key, _ in spec.rows:
        row = [str(part) for part in row_key]
        for column in columns:
            row.append(result.cell(row_key, column))
        body.append(row)
    rendered = _render_grid(spec.title, header, body)

    if not _has_timing(result):
        return rendered
    split_body: List[List[str]] = []
    for row_key, _ in spec.rows:
        row = [str(part) for part in row_key]
        for column in columns:
            split = _timing_split(result.outcomes.get((row_key, column)))
            row.append(split if split is not None else "-")
        split_body.append(row)
    breakdown = _render_grid(
        "Timing split: shareable build + check seconds", header, split_body
    )
    return rendered + "\n\n" + breakdown


def render_json(result: TableResult) -> str:
    """Render a table result as structured JSON (full outcomes, not just cells).

    Each populated cell is a versioned :class:`~repro.api.TableCell` record
    (``schema_version`` and type tag included), so the export round-trips
    through :func:`repro.api.result_from_json`.
    """
    spec = result.spec
    columns = spec.columns()
    rows = []
    for row_key, _ in spec.rows:
        cells: Dict[str, object] = {}
        for column in columns:
            outcome = result.outcomes.get((row_key, column))
            if outcome is None:
                cells[column] = None
                continue
            cells[column] = TableCell.from_outcome(column, outcome).to_json()
        rows.append({"key": list(row_key), "cells": cells})
    return json.dumps(
        {
            "table": spec.name,
            "title": spec.title,
            "row_header": list(spec.row_header),
            "engine": DEFAULT_ENGINE,
            "columns": columns,
            "rows": rows,
        },
        indent=2,
        sort_keys=True,
    )


def render_csv(result: TableResult) -> str:
    """Render a table result as CSV: row-header columns then one per cell.

    When any cell recorded the build/check timing split, each cell column is
    followed by ``<column> build_s`` and ``<column> check_s`` columns (empty
    for cells without a split — timeouts, errors, pre-split journals).
    """
    spec = result.spec
    columns = spec.columns()
    timing = _has_timing(result)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = list(spec.row_header)
    for column in columns:
        header.append(column)
        if timing:
            header.extend([f"{column} build_s", f"{column} check_s"])
    writer.writerow(header)
    for row_key, _ in spec.rows:
        row = [str(part) for part in row_key]
        for column in columns:
            row.append(result.cell(row_key, column))
            if timing:
                outcome = result.outcomes.get((row_key, column))
                if outcome is not None and outcome.build_seconds is not None:
                    row.extend(
                        [f"{outcome.build_seconds:.3f}",
                         f"{outcome.check_seconds:.3f}"]
                    )
                else:
                    row.extend(["", ""])
        writer.writerow(row)
    return buffer.getvalue()


def _percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def render_timings(result: TableResult) -> str:
    """Render the ``report --timings`` view: build/check latency per column.

    One row per grid column with the p50/p95/max of the build and check
    seconds across that column's completed cells, plus a closing ``all``
    row over every cell — the at-a-glance answer to "which task is slow,
    and is it the space build or the satisfaction pass".  Cells without a
    recorded split (timeouts, errors, pre-split journals) are counted but
    excluded from the distributions.
    """
    spec = result.spec
    columns = spec.columns()
    per_column: Dict[str, List[Tuple[float, float]]] = {
        column: [] for column in columns
    }
    unreported = 0
    for (_, column), outcome in result.outcomes.items():
        if outcome.build_seconds is None or outcome.check_seconds is None:
            unreported += 1
            continue
        per_column.setdefault(column, []).append(
            (outcome.build_seconds, outcome.check_seconds)
        )

    def _row(label: str, samples: List[Tuple[float, float]]) -> List[str]:
        builds = sorted(sample[0] for sample in samples)
        checks = sorted(sample[1] for sample in samples)
        total = sum(builds) + sum(checks)
        return [
            label,
            str(len(samples)),
            f"{_percentile(builds, 0.5):.3f}",
            f"{_percentile(builds, 0.95):.3f}",
            f"{_percentile(checks, 0.5):.3f}",
            f"{_percentile(checks, 0.95):.3f}",
            f"{max(checks, default=0.0):.3f}",
            f"{total:.3f}",
        ]

    header = ["column", "cells", "build_p50", "build_p95",
              "check_p50", "check_p95", "check_max", "total_s"]
    body = [_row(column, per_column.get(column, [])) for column in columns]
    everything = [sample for samples in per_column.values()
                  for sample in samples]
    body.append(_row("all", everything))
    title = f"Timings — {spec.title} (seconds, percentiles across cells)"
    rendered = _render_grid(title, header, body)
    if unreported:
        rendered += (f"\n({unreported} cell(s) without a timing split: "
                     f"timeouts, errors, or pre-split journals)")
    return rendered


# ---------------------------------------------------------------------------
# The paper's tables
# ---------------------------------------------------------------------------


def _nt_grid(max_n: int, min_n: int = 2) -> List[Tuple[int, int]]:
    """The (n, t) grid used by Table 1: all t from 1 to n, n from 2 up."""
    grid = []
    for n in range(min_n, max_n + 1):
        for t in range(1, n + 1):
            grid.append((n, t))
    return grid


def table1_spec(max_n: int = 5, include_count: bool = True) -> TableSpec:
    """Table 1: SBA model checking and synthesis, FloodSet vs Count-FloodSet."""
    spec = TableSpec(
        name="table1",
        title="Table 1: running times for SBA model checking and synthesis "
        "(crash failures, |V| = 2)",
        row_header=("n", "t"),
    )
    for n, t in _nt_grid(max_n):
        cells: List[CellSpec] = [
            (
                "floodset-mc",
                "sba-model-check",
                {"exchange": "floodset", "num_agents": n, "max_faulty": t},
            ),
            (
                "floodset-synth",
                "sba-synthesis",
                {"exchange": "floodset", "num_agents": n, "max_faulty": t},
            ),
        ]
        if include_count:
            cells.extend(
                [
                    (
                        "count-mc",
                        "sba-model-check",
                        {"exchange": "count", "num_agents": n, "max_faulty": t},
                    ),
                    (
                        "count-synth",
                        "sba-synthesis",
                        {"exchange": "count", "num_agents": n, "max_faulty": t},
                    ),
                ]
            )
        spec.rows.append(((n, t), cells))
    return spec


def table2_spec(max_n: int = 4) -> TableSpec:
    """Table 2: SBA model checking for Diff and Dwork–Moses, varying rounds."""
    spec = TableSpec(
        name="table2",
        title="Table 2: running times for SBA model checking, Diff and "
        "Dwork-Moses protocols (crash failures, |V| = 2)",
        row_header=("n", "t", "rounds"),
    )
    for n in range(2, max_n + 1):
        for t in range(1, n + 1):
            for rounds in range(1, t + 2):
                cells: List[CellSpec] = [
                    (
                        "diff-mc",
                        "sba-model-check",
                        {
                            "exchange": "diff",
                            "num_agents": n,
                            "max_faulty": t,
                            "rounds": rounds,
                        },
                    ),
                    (
                        "dwork-moses-mc",
                        "sba-model-check",
                        {
                            "exchange": "dwork-moses",
                            "num_agents": n,
                            "max_faulty": t,
                            "rounds": rounds,
                        },
                    ),
                ]
                spec.rows.append(((n, t, rounds), cells))
    return spec


def table3_spec(max_n: int = 4) -> TableSpec:
    """Table 3: EBA synthesis, E_min and E_basic, crash and sending omissions."""
    spec = TableSpec(
        name="table3",
        title="Table 3: running times for EBA synthesis",
        row_header=("n", "t"),
    )
    for n in range(2, max_n + 1):
        for t in range(1, n + 1):
            cells: List[CellSpec] = []
            for exchange in ("emin", "ebasic"):
                for failures in ("crash", "sending"):
                    cells.append(
                        (
                            f"{exchange}-{failures}",
                            "eba-synthesis",
                            {
                                "exchange": exchange,
                                "num_agents": n,
                                "max_faulty": t,
                                "failures": failures,
                            },
                        )
                    )
            spec.rows.append(((n, t), cells))
    return spec


def ablation_temporal_only(max_n: int = 5) -> TableSpec:
    """Ablation: purely temporal SBA checking scales further (Section 13)."""
    spec = TableSpec(
        name="ablation-temporal",
        title="Ablation: purely temporal SBA specification checking "
        "(no knowledge operators)",
        row_header=("exchange", "n", "t"),
    )
    for exchange in ("floodset", "dwork-moses"):
        for n in range(3, max_n + 1):
            t = n - 1
            spec.rows.append(
                (
                    (exchange, n, t),
                    [
                        (
                            "temporal-mc",
                            "sba-temporal-only",
                            {"exchange": exchange, "num_agents": n, "max_faulty": t},
                        ),
                        (
                            "full-mc",
                            "sba-model-check",
                            {"exchange": exchange, "num_agents": n, "max_faulty": t},
                        ),
                    ],
                )
            )
    return spec


def ablation_failure_models(max_n: int = 3) -> TableSpec:
    """Ablation: receiving and general omissions behave like sending omissions."""
    spec = TableSpec(
        name="ablation-failures",
        title="Ablation: EBA synthesis under other omission failure models",
        row_header=("n", "t"),
    )
    for n in range(2, max_n + 1):
        for t in range(1, n + 1):
            cells: List[CellSpec] = []
            for failures in ("sending", "receiving", "general"):
                cells.append(
                    (
                        f"emin-{failures}",
                        "eba-synthesis",
                        {
                            "exchange": "emin",
                            "num_agents": n,
                            "max_faulty": t,
                            "failures": failures,
                        },
                    )
                )
            spec.rows.append(((n, t), cells))
    return spec
