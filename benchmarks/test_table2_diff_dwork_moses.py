"""Table 2: SBA model checking of the Diff and Dwork-Moses protocols.

Each benchmark is one cell of Table 2: model checking the protocol with a
bounded number of rounds (the paper varies the number of rounds to study its
impact on performance — it is minimal, which these benchmarks reproduce).
"""

import pytest

from repro.harness.tasks import TASKS


def _grid(max_n):
    grid = []
    for n in range(2, max_n + 1):
        for t in range(1, n + 1):
            for rounds in range(1, t + 2):
                grid.append((n, t, rounds))
    return grid


GRID = _grid(3)


@pytest.mark.parametrize("n,t,rounds", GRID, ids=lambda v: str(v))
def test_diff_model_check(benchmark, n, t, rounds):
    result = benchmark.pedantic(
        TASKS["sba-model-check"],
        kwargs={
            "exchange": "diff",
            "num_agents": n,
            "max_faulty": t,
            "rounds": rounds,
            "optimal_protocol": True,
        },
        rounds=1,
        iterations=1,
    )
    assert result["states"] > 0
    # Agreement and validity hold regardless of how many rounds are modelled.
    assert result["spec"]["agreement"]
    assert result["spec"]["validity"]


@pytest.mark.parametrize("n,t,rounds", GRID, ids=lambda v: str(v))
def test_dwork_moses_model_check(benchmark, n, t, rounds):
    result = benchmark.pedantic(
        TASKS["sba-model-check"],
        kwargs={
            "exchange": "dwork-moses",
            "num_agents": n,
            "max_faulty": t,
            "rounds": rounds,
        },
        rounds=1,
        iterations=1,
    )
    assert result["states"] > 0
    assert result["spec"]["agreement"]
    assert result["spec"]["validity"]
    assert result["sound"]
