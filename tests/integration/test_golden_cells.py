"""The small-n paper cells match their golden records exactly.

``golden_cells.json`` pins every observable of each cell: state counts,
spec verdicts, optimality and late/unsound counts, earliest decision times,
EBA iteration counts and the rendered synthesis conditions.  Only the
``golden_cells.py`` script rewrites it.
"""

from __future__ import annotations

import json

import pytest

from golden_cells import CELLS, GOLDEN_PATH, MATRIX, compute_cell
from repro.harness.tasks import TASKS

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _cell_id(cell: dict) -> str:
    params = cell["params"]
    parts = [cell["task"], params["exchange"],
             f"n{params['num_agents']}t{params['max_faulty']}"]
    if "rounds" in params:
        parts.append(f"r{params['rounds']}")
    if "failures" in params:
        parts.append(params["failures"])
    if params.get("optimal_protocol"):
        parts.append("optimal")
    return "-".join(parts)


def test_golden_file_covers_every_cell():
    assert [(cell["task"], cell["params"]) for cell in GOLDEN] == [
        (task, params) for task, params in CELLS
    ]
    assert len({_cell_id(cell) for cell in GOLDEN}) == len(GOLDEN)


@pytest.mark.parametrize("golden", GOLDEN, ids=[_cell_id(cell) for cell in GOLDEN])
def test_cell_matches_golden_record(golden):
    assert compute_cell(golden["task"], golden["params"]) == golden


@pytest.mark.parametrize("engine", ["z3", "symbolic", "set"])
def test_tasks_reject_unknown_engine(engine):
    task, params = MATRIX[0]
    with pytest.raises(ValueError, match=f"'{engine}' is not a satisfaction engine"):
        TASKS[task](**params, engine=engine)
