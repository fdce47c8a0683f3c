"""Unit tests for the compute plane: plan, guard and preloader."""

import threading
import warnings

import pytest

from repro.api.build import build_model, literature_protocol
from repro.api.scenario import Scenario
from repro.runtime.guard import WallClockExceeded, wall_clock_limit
from repro.runtime.plan import (
    SHARED_SPACE_TASKS,
    SpaceKey,
    build_space_artefacts,
    cell_space_plan,
    model_cache_key,
    space_cache_key,
    space_plan,
)
from repro.runtime.preload import Preloader, parse_frontier
from repro.systems.space import SpaceBudgetExceeded, build_space

FLOODSET_3_1 = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
FLOODSET_4_2 = Scenario(exchange="floodset", num_agents=4, max_faulty=2)


def _space_fingerprint(space):
    """Everything observable about a space's structure, per level."""
    return (
        space.horizon,
        [sorted(map(str, level)) for level in space.levels],
        [sorted(map(str, acts)) for acts in space.actions],
        [len(succ) for succ in space.successors],
    )


class TestKeys:
    def test_space_key_excludes_horizon(self):
        default = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        short = Scenario(exchange="floodset", num_agents=3, max_faulty=1,
                         rounds=2)
        assert SpaceKey.from_scenario(default) == SpaceKey.from_scenario(short)

    def test_space_key_separates_configurations(self):
        assert SpaceKey.from_scenario(FLOODSET_3_1) != \
            SpaceKey.from_scenario(FLOODSET_4_2)
        other_failures = Scenario(exchange="floodset", num_agents=3,
                                  max_faulty=1, failures="sending")
        assert SpaceKey.from_scenario(FLOODSET_3_1) != \
            SpaceKey.from_scenario(other_failures)

    def test_cache_keys_reproduce_session_tuples(self):
        # The persisted cache keys must be byte-identical to the tuples the
        # pre-refactor Session built, or persistent stores silently go cold.
        scenario = FLOODSET_3_1
        assert model_cache_key(scenario) == (
            "model", "floodset", 3, 1, 2, "crash",
        )
        protocol = literature_protocol(scenario)
        assert space_cache_key(scenario, protocol.name, 3) == (
            "space", "floodset", 3, 1, 2, "crash",
            protocol.name, 3, None,
        )

    def test_cell_space_plan_only_for_shared_tasks(self):
        params = {"exchange": "floodset", "num_agents": 3, "max_faulty": 1}
        for task in SHARED_SPACE_TASKS:
            if task.startswith("sba"):
                assert cell_space_plan(task, params) is not None
        assert cell_space_plan("sba-synthesis", params) is None
        assert cell_space_plan("eba-synthesis", params) is None
        assert cell_space_plan("ad-hoc-task", {"seconds": 1}) is None
        # Malformed parameters: no plan rather than an exception.
        assert cell_space_plan("sba-model-check", {"bogus": True}) is None


class TestBuildSpaceArtefacts:
    def test_full_horizon_build_matches_build_space(self):
        scenario = FLOODSET_3_1
        artefacts = build_space_artefacts(scenario)
        model = build_model(scenario)
        protocol = literature_protocol(scenario)
        fresh = build_space(model, protocol, horizon=model.default_horizon())
        assert not artefacts.budget_exceeded
        assert _space_fingerprint(artefacts.space_for(artefacts.target_horizon)) \
            == _space_fingerprint(fresh)

    def test_prefix_equals_fresh_smaller_build(self):
        scenario = FLOODSET_4_2
        artefacts = build_space_artefacts(scenario)  # horizon 4
        model = build_model(scenario)
        protocol = literature_protocol(scenario)
        for horizon in range(artefacts.target_horizon + 1):
            serves = artefacts.space_for(horizon)
            fresh = build_space(model, protocol, horizon=horizon)
            assert _space_fingerprint(serves) == _space_fingerprint(fresh), horizon

    def test_prefix_shares_levels_but_not_caches(self):
        artefacts = build_space_artefacts(FLOODSET_4_2)
        prefix = artefacts.space_for(2)
        source = artefacts.space
        assert prefix is not source
        assert prefix.levels[1] is source.levels[1]  # shared by reference
        # Warming a formula-specific mask on the prefix must not leak into
        # the shared source space: the caches are fresh containers.
        prefix._cache("_atom_mask_cache")[(0, "sentinel")] = 1
        assert (0, "sentinel") not in getattr(source, "_atom_mask_cache", {})

    def test_masks_are_warm_after_build(self):
        artefacts = build_space_artefacts(FLOODSET_3_1)
        space = artefacts.space
        assert len(space._level_mask_cache) == artefacts.built_horizon + 1
        assert len(space._pred_mask_cache) == artefacts.built_horizon

    def test_budget_bust_keeps_within_budget_prefix(self):
        scenario = Scenario(exchange="floodset", num_agents=4, max_faulty=2,
                            max_states=200)
        artefacts = build_space_artefacts(scenario)
        assert artefacts.budget_exceeded
        assert 0 <= artefacts.built_horizon < artefacts.target_horizon
        # Levels within budget serve exactly what a fresh build would give.
        model = build_model(scenario)
        protocol = literature_protocol(scenario)
        for horizon in range(artefacts.built_horizon + 1):
            fresh = build_space(model, protocol, horizon=horizon,
                                max_states=scenario.max_states)
            assert _space_fingerprint(artefacts.space_for(horizon)) == \
                _space_fingerprint(fresh)
        # Levels beyond the bust raise exactly like a fresh build would.
        with pytest.raises(SpaceBudgetExceeded):
            artefacts.space_for(artefacts.target_horizon)

    def test_bust_leaves_built_horizon_at_the_last_level_with_actions(self):
        scenario = Scenario(exchange="floodset", num_agents=4, max_faulty=2,
                            max_states=500)
        artefacts = build_space_artefacts(scenario)
        space = artefacts.space
        assert artefacts.budget_exceeded
        assert artefacts.built_horizon == len(space.actions) - 1 == 1
        assert len(space.levels) == len(space.actions) + 1

    def test_short_build_serves_none_beyond_horizon(self):
        artefacts = build_space_artefacts(FLOODSET_3_1, horizon=2)
        assert artefacts.space_for(3) is None  # caller builds fresh


class TestPreloader:
    def test_ensure_builds_once_and_serves_prefixes(self):
        preloader = Preloader()
        first = preloader.ensure(FLOODSET_4_2)
        again = preloader.ensure(FLOODSET_4_2)
        assert first is again
        smaller = Scenario(exchange="floodset", num_agents=4, max_faulty=2,
                           rounds=2)
        assert preloader.space_for(smaller, 2) is not None
        assert preloader.model_for(FLOODSET_4_2) is first.model

    def test_ensure_rebuilds_for_taller_horizon(self):
        preloader = Preloader()
        short = preloader.ensure(FLOODSET_4_2, horizon=2)
        tall = preloader.ensure(FLOODSET_4_2, horizon=4)
        assert tall is not short
        assert tall.target_horizon == 4

    def test_release_drops_artefacts_keeps_model(self):
        preloader = Preloader()
        artefacts = preloader.ensure(FLOODSET_3_1)
        preloader.release(artefacts.key)
        assert len(preloader) == 0
        assert preloader.space_for(FLOODSET_3_1, 3) is None
        assert preloader.model_for(FLOODSET_3_1) is artefacts.model

    def test_preload_cells_groups_and_skips_synthesis(self):
        cells = [
            ("sba-model-check", FLOODSET_3_1),
            ("sba-temporal-only", FLOODSET_3_1),
            ("sba-synthesis", FLOODSET_3_1),
            ("sba-model-check", FLOODSET_4_2),
        ]
        preloader = Preloader()
        summary = preloader.preload_cells(cells)
        assert summary["spaces"] == 2
        assert summary["skipped_cells"] == 1
        assert len(preloader) == 2


class TestParseFrontier:
    def test_known_names_resolve_to_cells(self):
        cells = parse_frontier("table1:max-n=2")
        assert cells
        assert all(isinstance(scenario, Scenario) for _, scenario in cells)
        tasks = {task for task, _ in cells}
        assert "sba-model-check" in tasks

    def test_options_are_applied(self):
        small = parse_frontier("table1:max-n=2")
        large = parse_frontier("table1:max-n=3")
        assert len(large) > len(small)

    def test_unknown_name_and_options_are_rejected(self):
        with pytest.raises(ValueError, match="unknown preload frontier"):
            parse_frontier("table9")
        for option in ("workers=2", "engine=bitset"):
            with pytest.raises(ValueError, match="unknown preload option"):
                parse_frontier(f"table1:{option}")
        with pytest.raises(ValueError, match="must be an integer"):
            parse_frontier("table1:max-n=lots")
        with pytest.raises(ValueError, match="malformed preload option"):
            parse_frontier("table1:max-n")


class TestWallClockLimit:
    def test_disabled_without_budget(self):
        with wall_clock_limit(None) as enforced:
            assert enforced is False
        with wall_clock_limit(0) as enforced:
            assert enforced is False

    def test_raises_when_budget_busted(self):
        import time

        with pytest.raises(WallClockExceeded):
            with wall_clock_limit(0.05, label="test block"):
                time.sleep(5.0)

    def test_no_raise_within_budget_and_timer_cancelled(self):
        import signal as signal_module
        import time

        with wall_clock_limit(5.0) as enforced:
            assert enforced is True
        # The timer must be cancelled on exit: nothing fires afterwards.
        assert signal_module.getitimer(signal_module.ITIMER_REAL) == (0.0, 0.0)
        time.sleep(0.01)

    def test_off_main_thread_degrades_with_warning(self):
        observed = {}

        def _run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with wall_clock_limit(0.01, label="threaded block") as enforced:
                    observed["enforced"] = enforced
                observed["warnings"] = [str(w.message) for w in caught]

        thread = threading.Thread(target=_run)
        thread.start()
        thread.join()
        assert observed["enforced"] is False
        assert any("not enforced" in message for message in observed["warnings"])
