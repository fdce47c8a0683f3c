"""Ablation: receiving and general omissions behave like sending omissions.

Section 11 of the paper notes that modelling receiving and general omissions
gives similar performance, with successful computations in the same cases.
These benchmarks run EBA synthesis for E_min under each omission variant.
"""

import pytest

from repro.harness.tasks import TASKS

GRID = [(2, 1), (3, 1), (3, 2)]


@pytest.mark.parametrize("failures", ["sending", "receiving", "general"])
@pytest.mark.parametrize("n,t", GRID, ids=lambda v: str(v))
def test_emin_synthesis_across_omission_variants(benchmark, n, t, failures):
    result = benchmark.pedantic(
        TASKS["eba-synthesis"],
        kwargs={
            "exchange": "emin",
            "num_agents": n,
            "max_faulty": t,
            "failures": failures,
        },
        rounds=1,
        iterations=1,
    )
    assert result["converged"]
