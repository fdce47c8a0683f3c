"""Espresso vs Quine–McCluskey on the ROADMAP condition-rendering repro.

The ROADMAP open item: ``python -m repro synthesize --exchange ebasic
--agents 3 --faulty 1 --failures sending`` produces conditions over 10–11
feature variables with only 7–13 reachable observations each, and the seed's
exact Quine–McCluskey path (which expands the implicit don't-care complement)
took ~2 minutes for a *single* ``describe()`` call.  The espresso backend
renders the **whole** condition table (24 conditions, all agents and times)
in well under a second.

Results are recorded into ``BENCH_minimize.json`` at the repository root,
following the ``BENCH_checker.json`` conventions: the file is only
(re)written when missing or when ``REPRO_BENCH_RECORD`` is set.  The QM
baseline for the worst single condition takes ~2 minutes, so it is only
re-measured when ``REPRO_BENCH_QM`` is additionally set, by running the
exact backend (:func:`repro.core.minimize.minimise`) on the condition's
table with its implicit don't-cares; otherwise the recorded measurement is
carried forward and the espresso side is re-timed and re-asserted on every
run.  Both backends are called directly on each predicate's truth table.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.cover import assignment_to_index, certify_cover
from repro.core.espresso import espresso_minimise
from repro.core.minimize import minimise
from repro.core.synthesis import synthesize_eba
from repro.api import Scenario, build_model

# Benchmark-smoke mode (see benchmarks/conftest.py): keep the functional
# checks, drop the wall-clock assertion and recording.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_minimize.json"
ROUNDS = 1 if SMOKE else 3

#: Acceptance budget for rendering the full condition table with espresso.
ESPRESSO_BUDGET_SECONDS = 5.0

#: QM baseline for the worst single condition, measured on this scenario
#: before the backend switch existed (seed algorithm, same machine class as
#: the recorded espresso numbers).  Re-measure with ``REPRO_BENCH_QM=1``.
QM_WORST_SEED_SECONDS = 113.2

_RECORDING = not SMOKE and (
    bool(os.environ.get("REPRO_BENCH_RECORD")) or not BENCH_PATH.exists()
)
_MEASURE_QM = bool(os.environ.get("REPRO_BENCH_QM"))


def _roadmap_predicate(conditions):
    """The condition the ROADMAP open item cites: agent 0, time 1, decide-1.

    Ten feature variables, seven reachable observations — the smallest of
    the wide conditions.  (The 11-variable time-2 conditions are *worse* for
    QM — upwards of ten minutes — so the recorded baseline understates the
    seed's cost of rendering the full table.)
    """
    return conditions.get(0, 1, "decide1")


def _truth_table_sets(predicate):
    """A predicate's variable names and its on-set and off-set minterms."""
    names, table = predicate._boolean_table()
    on_set, off_set = [], []
    for assignment, value in table.items():
        (on_set if value else off_set).append(assignment_to_index(assignment))
    return names, on_set, off_set


def _prior_qm_seconds() -> float:
    if BENCH_PATH.exists():
        try:
            recorded = json.loads(BENCH_PATH.read_text())
            return float(
                recorded["workloads"]["ebasic_sending_n3"]["qm_roadmap_seconds"]
            )
        except (ValueError, KeyError, TypeError):
            pass
    return QM_WORST_SEED_SECONDS


def test_roadmap_repro_condition_rendering():
    """The ROADMAP scenario's rendering drops from ~2 min to sub-second."""
    model = build_model(
        Scenario(exchange="ebasic", num_agents=3, max_faulty=1, failures="sending")
    )
    start = time.perf_counter()
    result = synthesize_eba(model)
    synthesis_seconds = time.perf_counter() - start
    conditions = result.conditions

    predicates = list(conditions.conditions.values())
    espresso_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        covers = []
        for predicate in predicates:
            names, on_set, off_set = _truth_table_sets(predicate)
            cover = espresso_minimise(len(names), on_set, off_set)
            cover.render(names)
            covers.append((on_set, off_set, cover))
        espresso_seconds = min(espresso_seconds, time.perf_counter() - start)
    assert len(covers) == len(conditions.conditions)

    # Every espresso cover must verify exactly against its specification
    # before any timing claim means anything.
    for predicate, (on_set, off_set, cover) in zip(predicates, covers):
        certificate = certify_cover(cover, on_set, off_set)
        assert certificate.prime_and_irredundant, (
            predicate.agent,
            predicate.time,
            certificate,
        )

    names, on_set, off_set = _truth_table_sets(_roadmap_predicate(conditions))
    start = time.perf_counter()
    espresso_minimise(len(names), on_set, off_set)
    espresso_roadmap_seconds = time.perf_counter() - start

    if _MEASURE_QM:
        specified = set(on_set) | set(off_set)
        dont_cares = (
            index for index in range(2 ** len(names)) if index not in specified
        )
        start = time.perf_counter()
        minimise(len(names), on_set, dont_cares)
        qm_roadmap_seconds = time.perf_counter() - start
    else:
        qm_roadmap_seconds = _prior_qm_seconds()

    payload = {
        "workload": "condition-rendering",
        "exchange": "ebasic",
        "n": 3,
        "t": 1,
        "failures": "sending",
        "conditions": len(conditions.conditions),
        "max_feature_variables": max(
            len(predicate._boolean_table()[0])
            for predicate in conditions.conditions.values()
        ),
        "roadmap_condition": "agent 0, time 1, decide1 (10 variables, 7 rows)",
        "synthesis_seconds": round(synthesis_seconds, 4),
        "espresso_table_seconds": round(espresso_seconds, 4),
        "espresso_roadmap_seconds": round(espresso_roadmap_seconds, 4),
        "qm_roadmap_seconds": round(qm_roadmap_seconds, 4),
        "qm_roadmap_remeasured": _MEASURE_QM,
        "roadmap_condition_speedup": round(
            qm_roadmap_seconds / max(espresso_roadmap_seconds, 1e-9), 2
        ),
    }

    if _RECORDING:
        existing: dict = {}
        if BENCH_PATH.exists():
            try:
                existing = json.loads(BENCH_PATH.read_text())
            except ValueError:
                existing = {}
        workloads = existing.get("workloads", {})
        workloads["ebasic_sending_n3"] = payload
        BENCH_PATH.write_text(
            json.dumps(
                {
                    "benchmark": "espresso condition minimiser vs exact "
                    "Quine-McCluskey on the ROADMAP describe() repro",
                    "rounds": ROUNDS,
                    "workloads": workloads,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )

    if SMOKE:
        return
    assert espresso_seconds < ESPRESSO_BUDGET_SECONDS, (
        f"espresso rendering of the full condition table took "
        f"{espresso_seconds:.2f}s (budget {ESPRESSO_BUDGET_SECONDS}s)"
    )
