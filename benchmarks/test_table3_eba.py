"""Table 3: EBA synthesis for the exchanges E_min and E_basic.

Each benchmark is one cell of Table 3: synthesizing the implementation of the
knowledge-based program ``P0`` for one exchange, failure model and (n, t).
The paper reports crash and sending-omissions columns; E_basic is more
expensive than E_min because of the additional ``num1`` counter — the same
ordering shows up in these benchmarks.
"""

import pytest

from repro.harness.tasks import TASKS

GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)]


@pytest.mark.parametrize("failures", ["crash", "sending"])
@pytest.mark.parametrize("n,t", GRID, ids=lambda v: str(v))
def test_emin_synthesis(benchmark, n, t, failures):
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


@pytest.mark.parametrize("failures", ["crash", "sending"])
@pytest.mark.parametrize("n,t", GRID, ids=lambda v: str(v))
def test_ebasic_synthesis(benchmark, n, t, failures):
    result = benchmark.pedantic(
        TASKS["eba-synthesis"],
        kwargs={
            "exchange": "ebasic",
            "num_agents": n,
            "max_faulty": t,
            "failures": failures,
        },
        rounds=1,
        iterations=1,
    )
    assert result["converged"]
