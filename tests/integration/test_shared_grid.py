"""Cross-fork isolation of the shared compute plane.

``run_table(share_spaces=True)`` builds each group's space once in the
scheduler process and forks it copy-on-write into every cell child.  The
acceptance bar for that optimisation is *exact* equivalence: cell for
cell, a shared grid must report the same results, timeouts and errors as
the per-cell-rebuild baseline, and a barrage of forked children warming
their inherited spaces must never write back into the parent's artefacts.
"""

from repro.api import Scenario, Session
from repro.harness.runner import run_case
from repro.harness.tasks import run_task
from repro.harness.tables import (
    ablation_temporal_only,
    run_table,
    table3_spec,
)
from repro.runtime.preload import Preloader


def _assert_equivalent(shared, baseline):
    assert set(shared.outcomes) == set(baseline.outcomes)
    for key, base in baseline.outcomes.items():
        got = shared.outcomes[key]
        assert got.result == base.result, key
        assert got.timed_out == base.timed_out, key
        assert got.error == base.error, key


class TestSharedGridEquivalence:
    def test_shared_matches_unshared_sequentially(self):
        # ablation-temporal-only is all model-checking cells: every row
        # exercises the shared plane (two cells per floodset space).
        spec = ablation_temporal_only(max_n=3)
        shared = run_table(spec, timeout=120.0, workers=1, share_spaces=True,
                           verbose=False)
        baseline = run_table(spec, timeout=120.0, workers=1,
                             share_spaces=False, verbose=False)
        _assert_equivalent(shared, baseline)

    def test_shared_matches_under_worker_pool(self):
        spec = ablation_temporal_only(max_n=3)
        shared = run_table(spec, timeout=120.0, workers=2, share_spaces=True,
                           verbose=False)
        baseline = run_table(spec, timeout=120.0, workers=1,
                             share_spaces=False, verbose=False)
        _assert_equivalent(shared, baseline)

    def test_mixed_grid_with_synthesis_cells_is_safe(self):
        # table3 rows are synthesis-only cells: nothing is shareable, and
        # the scheduler must pass them through untouched.
        spec = table3_spec(max_n=2)
        shared = run_table(spec, timeout=120.0, workers=1, share_spaces=True,
                           verbose=False)
        baseline = run_table(spec, timeout=120.0, workers=1,
                             share_spaces=False, verbose=False)
        _assert_equivalent(shared, baseline)


class TestForkBarrageIsolation:
    def test_children_never_pollute_the_parent_artefacts(self):
        scenario = Scenario(exchange="floodset", num_agents=4, max_faulty=2)
        preloader = Preloader()
        artefacts = preloader.ensure(scenario)
        space = artefacts.space
        # Formula-specific atom masks stay lazy in the parent build and
        # must stay cold: children warm their own CoW copies.  The warmed
        # observation masks must not grow either.
        assert not space._cache("_atom_mask_cache")
        obs_before = dict(space._cache("_obs_mask_cache"))
        assert obs_before  # warmed by the parent build

        params = scenario.to_params()
        for task in ("sba-model-check", "sba-temporal-only"):
            for _ in range(3):
                outcome = run_case(task, dict(params), timeout=120.0,
                                   preloaded=preloader)
                fresh = run_case(task, dict(params), timeout=120.0)
                assert outcome.ok and fresh.ok, (task, outcome.error)
                assert outcome.result == fresh.result, task

        assert not space._cache("_atom_mask_cache")
        assert dict(space._cache("_obs_mask_cache")) == obs_before

    def test_preloaded_task_run_matches_a_fresh_one_without_building(self):
        scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        preloader = Preloader()
        preloader.ensure(scenario)
        params = scenario.to_params()
        warm = run_task("sba-model-check", dict(params), preloaded=preloader)
        fresh = run_task("sba-model-check", dict(params))
        assert warm.result == fresh.result
        assert warm.build_seconds == 0.0
        assert fresh.build_seconds > 0.0

    def test_preloaded_first_query_skips_the_build(self):
        scenario = Scenario(exchange="floodset", num_agents=4, max_faulty=2)
        preloader = Preloader()
        preloader.ensure(scenario)
        warm = Session(preloaded=preloader)
        result = warm.check(scenario)
        assert result.spec_ok is not None
        assert warm.build_seconds() == 0.0
        assert warm.stats().preloaded == 2
