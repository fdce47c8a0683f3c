"""Persistent result store for experiment grids.

The paper's evaluation is a grid of hundreds of budgeted cells; losing a
multi-hour sweep to a crash or a ^C is unacceptable, so every completed
:class:`~repro.harness.runner.CaseOutcome` is journalled as soon as it is
harvested.  The journal is a JSON-lines file:

* one ``{"kind": "spec", ...}`` record per :func:`run_table` invocation,
  describing the table structure (title, row header, rows and the *resolved*
  per-cell task parameters, budgets included) — enough to re-render the
  table without re-running anything;
* one ``{"kind": "outcome", ...}`` record per completed cell, keyed by the
  canonical JSON encoding of ``(task, params)``.

Appending one line per event means an interrupted sweep loses at most the
cells that were in flight; on ``--resume`` the store is reloaded and every
cell whose key is already present is skipped.  When the same key appears
more than once (a cell re-run without ``--resume``), the last record wins,
as does the last spec record.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api import Scenario
from repro.engines import DEFAULT_ENGINE, validate_engine
from repro.harness.runner import CaseOutcome

#: A resolved cell: (row key, column label, task name, task parameters).
ResolvedCell = Tuple[Tuple, str, str, Dict[str, object]]


def canonical_key(task: str, params: Dict[str, object]) -> str:
    """The store key for a cell: the :class:`~repro.api.Scenario` canonical form.

    Parameters that map onto a scenario are normalised through
    ``Scenario.from_task_params`` → :meth:`Scenario.cell_key`, so two
    parameter dictionaries that mean the same configuration — whatever
    defaults they spell out and in whatever order — always produce the same
    key.  This is also the migration path for pre-redesign journals: their
    keys are recomputed through the same normalisation on load, so a journal
    whose cells spelled ``num_values=2`` or ``failures="crash"`` explicitly
    resumes against a sweep that omits them.  Unknown tasks (tests, forks)
    fall back to plain canonical JSON of the raw parameters.
    """
    try:
        return Scenario.from_task_params(task, params).cell_key(task)
    except (TypeError, ValueError):
        return json.dumps([task, params], sort_keys=True, separators=(",", ":"))


def outcome_to_record(outcome: CaseOutcome) -> Dict[str, object]:
    """Serialise an outcome to its JSON journal record."""
    return {
        "kind": "outcome",
        "key": canonical_key(outcome.task, outcome.params),
        "task": outcome.task,
        "params": outcome.params,
        "seconds": outcome.seconds,
        "timed_out": outcome.timed_out,
        "error": outcome.error,
        "result": outcome.result,
        "build_seconds": outcome.build_seconds,
        "check_seconds": outcome.check_seconds,
        "metrics": outcome.metrics,
        "profile": outcome.profile,
    }


def outcome_from_record(record: Dict[str, object]) -> CaseOutcome:
    """Rebuild an outcome from its JSON journal record.

    The timing-split and observability keys are read with ``.get`` so
    journals written before those fields existed load unchanged (they read
    back as None).
    """
    return CaseOutcome(
        task=record["task"],
        params=record["params"],
        seconds=record["seconds"],
        timed_out=record["timed_out"],
        error=record.get("error"),
        result=record.get("result"),
        build_seconds=record.get("build_seconds"),
        check_seconds=record.get("check_seconds"),
        metrics=record.get("metrics"),
        profile=record.get("profile"),
    )


class ResultStore:
    """A JSON-lines journal of completed cells, reloadable for resume/report."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.outcomes: Dict[str, CaseOutcome] = {}
        #: Wall-clock budget each outcome was recorded under (None = unknown
        #: or unbounded); lets resume re-run TO cells when the budget grew.
        self.budgets: Dict[str, Optional[float]] = {}
        self._spec_record: Optional[Dict[str, object]] = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        lines = self.path.read_text().splitlines()
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                # A torn final line is what a kill mid-append leaves behind;
                # dropping it loses exactly that one in-flight record.  A
                # torn line *followed by* intact records is real corruption.
                if all(not rest.strip() for rest in lines[position + 1:]):
                    break
                raise ValueError(
                    f"corrupt results journal {self.path}: {line[:80]!r}"
                ) from exc
            kind = record.get("kind")
            self._check_engines(record)
            if kind == "outcome":
                # Keys are recomputed (not trusted from the record) so journals
                # written before the Scenario normalisation migrate on read:
                # their cells re-key to the same canonical form new lookups use.
                key = canonical_key(record["task"], record["params"])
                self.outcomes[key] = outcome_from_record(record)
                self.budgets[key] = record.get("timeout")
            elif kind == "spec":
                self._spec_record = record

    def _check_engines(self, record: Dict[str, object]) -> None:
        """Refuse a record that names an engine this build does not have.

        :func:`canonical_key` would otherwise fall back to raw-JSON keys for
        such cells, silently re-keying the journal.
        """
        cells = [record] + [
            cell for row in record.get("rows") or () for cell in row.get("cells") or ()
        ]
        engines = [record.get("engine")] + [
            (cell.get("params") or {}).get("engine") for cell in cells
        ]
        for engine in engines:
            if engine is not None:
                try:
                    validate_engine(engine)
                except ValueError as exc:
                    raise ValueError(f"results journal {self.path}: {exc}") from exc

    def __contains__(self, key: str) -> bool:
        return key in self.outcomes

    def __len__(self) -> int:
        return len(self.outcomes)

    def get(self, task: str, params: Dict[str, object]) -> Optional[CaseOutcome]:
        """The stored outcome for a cell, or None if it has not completed."""
        return self.outcomes.get(canonical_key(task, params))

    def budget_for(self, task: str, params: Dict[str, object]) -> Optional[float]:
        """The wall-clock budget a stored outcome ran under, if recorded."""
        return self.budgets.get(canonical_key(task, params))

    def _append(self, record: Dict[str, object]) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def record(
        self, outcome: CaseOutcome, timeout: Optional[float] = None
    ) -> None:
        """Journal one completed cell (append-only, immediately flushed).

        ``timeout`` is the wall-clock budget the cell ran under; recording it
        lets a later resume distinguish a conclusive ``TO`` from one taken
        under a smaller budget than the re-run asks for.
        """
        record = outcome_to_record(outcome)
        record["timeout"] = timeout
        self._append(record)
        self.outcomes[record["key"]] = outcome
        self.budgets[record["key"]] = timeout

    def record_spec(
        self,
        name: str,
        title: str,
        row_header: Iterable[str],
        cells: Iterable[ResolvedCell],
    ) -> None:
        """Journal the table structure so the store is self-describing.

        ``cells`` carries the *resolved* parameters (budgets and the engine
        merged in), so :meth:`load_result` can look every cell up by the
        same canonical key :func:`run_table` records outcomes under.
        """
        rows: List[Dict[str, object]] = []
        by_key: Dict[Tuple, Dict[str, object]] = {}
        for row_key, column, task, params in cells:
            if row_key not in by_key:
                by_key[row_key] = {"key": list(row_key), "cells": []}
                rows.append(by_key[row_key])
            by_key[row_key]["cells"].append(
                {"column": column, "task": task, "params": params}
            )
        record = {
            "kind": "spec",
            "name": name,
            "title": title,
            "row_header": list(row_header),
            "engine": DEFAULT_ENGINE,
            "rows": rows,
        }
        self._append(record)
        self._spec_record = record

    def load_result(self):
        """Rebuild a renderable table result from the journal alone.

        Returns a :class:`~repro.harness.tables.TableResult`; cells whose
        outcome was never journalled render as ``-``, exactly like cells a
        sweep has not reached yet.
        """
        from repro.harness.tables import TableResult, TableSpec

        if self._spec_record is None:
            raise ValueError(
                f"results journal {self.path} has no spec record; it was not "
                "written by run_table"
            )
        spec = TableSpec(
            name=self._spec_record["name"],
            title=self._spec_record["title"],
            row_header=tuple(self._spec_record["row_header"]),
        )
        result = TableResult(spec=spec)
        for row in self._spec_record["rows"]:
            row_key = tuple(row["key"])
            cells = []
            for cell in row["cells"]:
                cells.append((cell["column"], cell["task"], cell["params"]))
                outcome = self.outcomes.get(
                    canonical_key(cell["task"], cell["params"])
                )
                if outcome is not None:
                    result.outcomes[(row_key, cell["column"])] = outcome
            spec.rows.append((row_key, cells))
        return result
