"""Table 1: SBA model checking and synthesis, FloodSet vs Count-FloodSet.

Each benchmark corresponds to one cell of Table 1 of the paper (crash
failures, two decision values): the ``mc`` benchmarks model check the
literature protocol and compare its decisions against the knowledge condition,
the ``synth`` benchmarks synthesize the optimal implementation of the
knowledge-based program ``P``.  The grid is restricted to the cases that
complete quickly in-process; the full grid (including the paper's ``TO``
cells) is produced by ``python -m repro table1``.
"""

import pytest

from repro.harness.tasks import TASKS

FLOODSET_GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 4)]
COUNT_GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@pytest.mark.parametrize("n,t", FLOODSET_GRID, ids=lambda v: str(v))
def test_floodset_model_check(benchmark, n, t):
    result = benchmark.pedantic(
        TASKS["sba-model-check"],
        kwargs={"exchange": "floodset", "num_agents": n, "max_faulty": t},
        rounds=1,
        iterations=1,
    )
    assert all(result["spec"].values())
    assert result["sound"]


@pytest.mark.parametrize("n,t", FLOODSET_GRID, ids=lambda v: str(v))
def test_floodset_synthesis(benchmark, n, t):
    result = benchmark.pedantic(
        TASKS["sba-synthesis"],
        kwargs={"exchange": "floodset", "num_agents": n, "max_faulty": t},
        rounds=1,
        iterations=1,
    )
    # The earliest decision time is the paper's condition (2).
    expected = n - 1 if t >= n - 1 else t + 1
    assert result["earliest_condition_time"] == expected


@pytest.mark.parametrize("n,t", COUNT_GRID, ids=lambda v: str(v))
def test_count_model_check(benchmark, n, t):
    result = benchmark.pedantic(
        TASKS["sba-model-check"],
        kwargs={
            "exchange": "count",
            "num_agents": n,
            "max_faulty": t,
            "optimal_protocol": True,
        },
        rounds=1,
        iterations=1,
    )
    assert all(result["spec"].values())
    assert result["sound"]


@pytest.mark.parametrize("n,t", COUNT_GRID, ids=lambda v: str(v))
def test_count_synthesis(benchmark, n, t):
    result = benchmark.pedantic(
        TASKS["sba-synthesis"],
        kwargs={"exchange": "count", "num_agents": n, "max_faulty": t},
        rounds=1,
        iterations=1,
    )
    assert result["states"] > 0
