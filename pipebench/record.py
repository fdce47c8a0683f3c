"""Record the answers every benchmark run is checked against.

Run from the root of a checkout (``PYTHONPATH=src python3 pipebench/record.py``)
at the commit whose answers are the reference.  Each cell runs cold on a
fresh ``Session`` exactly as the workload does; the serve-mix queries run on
one shared session, as one serving worker answers them.  An answer is the
``to_dict()`` verdict, plus the sha256 of ``describe()`` for synthesis
cells.  Before writing ``expected.json`` the verdicts are cross-checked
against the facts the Table 1-3 and ablation benchmarks under
``benchmarks/`` assert; a violated fact aborts the recording.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import List

import plan
from cells import answer

from repro.api import Scenario, Session


def facts(entry: dict, verdict: dict) -> List[str]:
    """Problems with a verdict, judged by the repository's table benchmarks."""
    problems = []
    op, doc = entry["op"], entry["scenario"]
    n, t = doc["num_agents"], doc["max_faulty"]
    if verdict["states"] <= 0:
        problems.append("no states")
    if op in ("check", "temporal") and verdict["task"].startswith("sba"):
        # Table 2 bounds the rounds, so only agreement and validity must hold.
        required = ("agreement", "validity") if "rounds" in doc else verdict["spec"]
        if not all(verdict["spec"][name] for name in required):
            problems.append(f"SBA specification fails: {verdict['spec']}")
        if op == "check" and doc["exchange"] != "diff" and not verdict["sound"]:
            problems.append("SBA protocol unsound")
    if op == "synthesize" and doc["exchange"] == "floodset":
        earliest = n - 1 if t >= n - 1 else t + 1
        if verdict["earliest_condition_time"] != earliest:
            problems.append(f"earliest decision time is not condition (2): {earliest}")
    if op == "synthesize" and verdict["task"] == "eba-synthesis" and not verdict["converged"]:
        problems.append("EBA synthesis did not converge")
    return problems


def record_cell(entry: dict) -> dict:
    scenario = Scenario.from_json(entry["scenario"])
    session = Session()
    text = None
    if entry["op"] == "synthesize":
        text = session.synthesis_artifact(scenario).conditions.describe()
    return answer(session.query(entry["op"], scenario), text)


def main() -> int:
    problems = []
    cells = {}
    for entry in plan.SBA_CELLS + plan.EBA_CELLS:
        cells[entry["id"]] = record_cell(entry)
        problems += [f"{entry['id']}: {p}" for p in facts(entry, cells[entry["id"]]["verdict"])]
        print(entry["id"], json.dumps(cells[entry["id"]]), flush=True)
    session = Session()
    serve = {}
    for entry in plan.SERVE_QUERIES:
        verdict = session.query(entry["op"], Scenario.from_json(entry["scenario"])).to_dict()
        serve[entry["id"]] = {"verdict": verdict}
        problems += [f"{entry['id']}: {p}" for p in facts(entry, verdict)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    with open(plan.EXPECTED_PATH, "w") as handle:
        json.dump({"commit": commit, "cells": cells, "serve": serve}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
