"""Ablation: purely temporal model checking vs the full epistemic analysis.

The paper's conclusion notes that the purely temporal SBA specification can be
checked with much better scaling than the common-knowledge analysis (their
SAT-based run of Dwork-Moses at ``n = 5, t = 4`` finishes in ~2 minutes while
the epistemic analysis times out).  These benchmarks compare the two analyses
on the same models in our engine.
"""

import pytest

from repro.harness.tasks import TASKS

CASES = [
    ("floodset", 4, 3),
    ("floodset", 5, 2),
    ("dwork-moses", 3, 2),
    ("dwork-moses", 3, 3),
]


@pytest.mark.parametrize("exchange,n,t", CASES, ids=lambda v: str(v))
def test_temporal_only_model_check(benchmark, exchange, n, t):
    result = benchmark.pedantic(
        TASKS["sba-temporal-only"],
        kwargs={"exchange": exchange, "num_agents": n, "max_faulty": t},
        rounds=1,
        iterations=1,
    )
    assert all(result["spec"].values())


@pytest.mark.parametrize("exchange,n,t", CASES, ids=lambda v: str(v))
def test_full_epistemic_model_check(benchmark, exchange, n, t):
    result = benchmark.pedantic(
        TASKS["sba-model-check"],
        kwargs={"exchange": exchange, "num_agents": n, "max_faulty": t},
        rounds=1,
        iterations=1,
    )
    assert all(result["spec"].values())
    assert result["sound"]
