"""The benchmark's inputs: cells, serving queries and the seeded streams.

Everything here is plain data.  ``run.py`` picks an order and a request
stream from the seed and hands the program only the resulting inputs; the
answers a run must reproduce live in ``expected.json`` next to this file
(regenerate them with ``record.py``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

CELL_WORKLOADS = ("sba-cells", "eba-cells")
WORKLOADS = CELL_WORKLOADS + ("serve-mix",)


def scenario(exchange: str, n: int, t: int, failures: Optional[str] = None,
             rounds: Optional[int] = None, optimal: bool = False) -> Dict[str, object]:
    """A scenario document as ``repro serve`` and ``Scenario.from_json`` take it."""
    doc: Dict[str, object] = {"exchange": exchange, "num_agents": n, "max_faulty": t}
    if failures is not None:
        doc["failures"] = failures
    if rounds is not None:
        doc["rounds"] = rounds
    if optimal:
        doc["optimal_protocol"] = True
    return doc


def _entry(op: str, doc: Dict[str, object]) -> Dict[str, object]:
    parts = [op, str(doc["exchange"]), f"n={doc['num_agents']}", f"t={doc['max_faulty']}"]
    if "failures" in doc:
        parts.append(str(doc["failures"]))
    if "rounds" in doc:
        parts.append(f"rounds={doc['rounds']}")
    if doc.get("optimal_protocol"):
        parts.append("optimal")
    return {"id": " ".join(parts), "op": op, "scenario": doc}


# Count and Diff are checked with their knowledge-optimal protocol, as the
# Table 1 and Table 2 benchmarks do; the other exchanges use the default.
SBA_CELLS: List[Dict[str, object]] = [
    _entry("check", scenario("floodset", 5, 3)),
    _entry("check", scenario("floodset", 6, 2)),
    _entry("check", scenario("count", 4, 2, optimal=True)),
    _entry("check", scenario("diff", 4, 2, rounds=3, optimal=True)),
    _entry("check", scenario("dwork-moses", 4, 2, rounds=3)),
    _entry("temporal", scenario("floodset", 4, 3)),
    _entry("temporal", scenario("dwork-moses", 3, 2)),
    _entry("synthesize", scenario("floodset", 6, 2)),
    _entry("synthesize", scenario("count", 4, 2)),
    _entry("synthesize", scenario("floodset", 4, 3)),
]

EBA_CELLS: List[Dict[str, object]] = [
    *(_entry("synthesize", scenario("emin", n, t, failures="sending"))
      for n, t in ((3, 1), (4, 1), (3, 2), (4, 2))),
    *(_entry("synthesize", scenario("ebasic", n, t, failures="sending"))
      for n, t in ((3, 1), (3, 2), (4, 1))),
    _entry("synthesize", scenario("ebasic", 3, 1, failures="crash")),
    _entry("synthesize", scenario("emin", 3, 1, failures="receiving")),
    _entry("synthesize", scenario("emin", 3, 1, failures="general")),
    _entry("check", scenario("ebasic", 4, 3, failures="sending")),
    _entry("check", scenario("emin", 5, 2, failures="sending")),
]

CELLS = {"sba-cells": SBA_CELLS, "eba-cells": EBA_CELLS}

#: The distinct serve-mix queries: Table 1-3 scenarios with n <= 5.
SERVE_QUERIES: List[Dict[str, object]] = [
    _entry("check", scenario("floodset", 3, 1)),
    _entry("check", scenario("floodset", 4, 2)),
    _entry("check", scenario("floodset", 5, 2)),
    _entry("check", scenario("count", 3, 2, optimal=True)),
    _entry("check", scenario("count", 4, 2, optimal=True)),
    _entry("check", scenario("diff", 3, 2, rounds=2, optimal=True)),
    _entry("check", scenario("dwork-moses", 3, 2)),
    _entry("check", scenario("dwork-moses", 4, 1, rounds=2)),
    _entry("check", scenario("emin", 4, 2, failures="sending")),
    _entry("check", scenario("ebasic", 3, 2, failures="sending")),
    _entry("check", scenario("ebasic", 4, 2, failures="sending")),
    _entry("temporal", scenario("floodset", 4, 3)),
    _entry("temporal", scenario("floodset", 5, 2)),
    _entry("temporal", scenario("dwork-moses", 3, 2)),
    _entry("synthesize", scenario("floodset", 3, 2)),
    _entry("synthesize", scenario("floodset", 4, 2)),
    _entry("synthesize", scenario("floodset", 5, 2)),
    _entry("synthesize", scenario("count", 3, 1)),
    _entry("synthesize", scenario("emin", 3, 1, failures="sending")),
    _entry("synthesize", scenario("emin", 4, 2, failures="sending")),
    _entry("synthesize", scenario("ebasic", 3, 1, failures="sending")),
    _entry("synthesize", scenario("ebasic", 3, 1, failures="crash")),
    _entry("synthesize", scenario("emin", 3, 1, failures="receiving")),
]

#: Warm-mix shares: the rest of the requests are single queries.
STATS_SHARE = 0.01
METRICS_SHARE = 0.01
BATCH_SHARE = 0.05
BATCH_SIZE = 3


def cell_order(workload: str, seed: int) -> List[Dict[str, object]]:
    """The workload's cells in the order the seed picks."""
    cells = list(CELLS[workload])
    random.Random(f"{workload}:{seed}").shuffle(cells)
    return cells


def cold_order(seed: int, cold_round: int) -> List[Dict[str, object]]:
    """One serve-mix cold phase: every distinct query once, seeded order."""
    queries = list(SERVE_QUERIES)
    random.Random(f"serve-cold:{seed}:{cold_round}").shuffle(queries)
    return queries


def warm_stream(queries: List[Dict[str, object]], tag: str, connection: int,
                mix: bool, length: int = 4000) -> List[Dict[str, object]]:
    """One connection's warm request stream: seeded repeats of ``queries``.

    Each item is ``{"kind": "query"|"batch"|"stats"|"metrics", "queries": [...]}``;
    without ``mix`` every item is a single query.
    """
    rng = random.Random(f"warm:{tag}:{connection}")
    stream: List[Dict[str, object]] = []
    for _ in range(length):
        draw = rng.random() if mix else 1.0
        if draw < STATS_SHARE:
            stream.append({"kind": "stats", "queries": []})
        elif draw < STATS_SHARE + METRICS_SHARE:
            stream.append({"kind": "metrics", "queries": []})
        elif draw < STATS_SHARE + METRICS_SHARE + BATCH_SHARE:
            stream.append({"kind": "batch", "queries": rng.sample(queries, BATCH_SIZE)})
        else:
            stream.append({"kind": "query", "queries": [rng.choice(queries)]})
    return stream


def load_expected() -> Dict[str, Dict[str, object]]:
    """The recorded answers: ``{"cells": {id: answer}, "serve": {id: answer}}``."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)
