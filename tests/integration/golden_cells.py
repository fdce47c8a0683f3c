"""Regenerate ``golden_cells.json``, the golden small-n paper cells.

Each cell is one harness task on a small instance of the paper's tables
(Table 1: floodset/count; Table 2: diff/dwork-moses with explicit rounds;
Table 3: emin/ebasic under crash and sending omissions).  ``MATRIX`` covers
every task up to n=4; ``GRID_CELLS`` adds every n=2 cell of the Table 1–3
grids, the smallest rows of the two ablation grids and then every n=3 cell
of the Table 1–3 grids, taken from the harness's own table specs.  The n=3
cells come last so the earlier records keep their place in the file.  The
golden file holds each cell's full ``to_dict()`` payload and, for synthesis
cells, the rendered ``ConditionTable.describe()`` text.
``test_golden_cells.py`` recomputes every cell and compares it with the file
exactly.

This script is the only writer of the file::

    PYTHONPATH=src python tests/integration/golden_cells.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import Scenario, Session
from repro.harness.tables import (
    ablation_failure_models,
    ablation_temporal_only,
    table1_spec,
    table2_spec,
    table3_spec,
)
from repro.harness.tasks import TASKS

GOLDEN_PATH = Path(__file__).with_name("golden_cells.json")

#: (task, params) covering every task in the registry.
MATRIX = [
    ("sba-model-check", {"exchange": "floodset", "num_agents": 3, "max_faulty": 2}),
    ("sba-model-check", {"exchange": "count", "num_agents": 3, "max_faulty": 1,
                         "optimal_protocol": True}),
    ("sba-model-check", {"exchange": "diff", "num_agents": 3, "max_faulty": 1,
                         "rounds": 2}),
    ("sba-model-check", {"exchange": "dwork-moses", "num_agents": 3,
                         "max_faulty": 1, "rounds": 2}),
    ("sba-temporal-only", {"exchange": "floodset", "num_agents": 3, "max_faulty": 2}),
    ("sba-synthesis", {"exchange": "floodset", "num_agents": 3, "max_faulty": 2}),
    ("sba-synthesis", {"exchange": "count", "num_agents": 3, "max_faulty": 1,
                       "failures": "sending"}),
    ("eba-synthesis", {"exchange": "emin", "num_agents": 3, "max_faulty": 1,
                       "failures": "crash"}),
    ("eba-synthesis", {"exchange": "ebasic", "num_agents": 3, "max_faulty": 1,
                       "failures": "sending"}),
    ("eba-model-check", {"exchange": "emin", "num_agents": 3, "max_faulty": 1}),
    ("eba-model-check", {"exchange": "ebasic", "num_agents": 2, "max_faulty": 2}),
    ("sba-model-check", {"exchange": "floodset", "num_agents": 4, "max_faulty": 2}),
    ("sba-model-check", {"exchange": "diff", "num_agents": 4, "max_faulty": 1,
                         "rounds": 2}),
    ("sba-model-check", {"exchange": "dwork-moses", "num_agents": 4,
                         "max_faulty": 1, "rounds": 2}),
    ("sba-synthesis", {"exchange": "count", "num_agents": 4, "max_faulty": 1}),
    ("eba-synthesis", {"exchange": "emin", "num_agents": 4, "max_faulty": 1}),
    ("eba-model-check", {"exchange": "ebasic", "num_agents": 4, "max_faulty": 1}),
]


def _grid_cells() -> list:
    """The small rows of the paper's grids, minus cells already listed."""
    cells: list = []
    for spec in (
        table1_spec(max_n=2),
        table2_spec(max_n=2),
        table3_spec(max_n=2),
        ablation_temporal_only(max_n=3),
        ablation_failure_models(max_n=2),
        table1_spec(max_n=3),
        table2_spec(max_n=3),
        table3_spec(max_n=3),
    ):
        for _, row in spec.rows:
            for _, task, params in row:
                if (task, params) not in MATRIX + cells:
                    cells.append((task, params))
    return cells


GRID_CELLS = _grid_cells()

#: Every golden cell, in file order.
CELLS = MATRIX + GRID_CELLS


def compute_cell(task: str, params: dict) -> dict:
    """One cell's golden record: the harness payload plus rendered conditions."""
    record = {"task": task, "params": params, "result": TASKS[task](**params)}
    if task.endswith("-synthesis"):
        scenario = Scenario.from_task_params(task, params)
        record["describe"] = Session().synthesis_artifact(scenario).conditions.describe()
    return record


def main() -> None:
    cells = [compute_cell(task, params) for task, params in CELLS]
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
