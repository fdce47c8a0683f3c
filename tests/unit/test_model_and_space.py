"""Unit tests for the BA model and the levelled state space."""

import pytest

from repro.api import Scenario, build_model
from repro.api.build import literature_protocol
from repro.systems.actions import NOOP
from repro.systems.model import BAModel, GlobalState
from repro.systems.space import (
    LevelledSpace,
    SpaceBudgetExceeded,
    build_space,
    joint_actions_for_level,
    noop_rule,
)
from repro.exchanges import FloodSetExchange
from repro.failures import CrashFailures


@pytest.fixture
def small_model():
    return build_model(Scenario(exchange="floodset", num_agents=2, max_faulty=1))


class TestBAModel:
    def test_mismatched_parameters_are_rejected(self):
        exchange = FloodSetExchange(num_agents=3, num_values=2, max_faulty=1)
        with pytest.raises(ValueError):
            BAModel(exchange, CrashFailures(2, 1))
        with pytest.raises(ValueError):
            BAModel(exchange, CrashFailures(3, 2))

    def test_initial_states_cover_all_vote_assignments(self, small_model):
        states = list(small_model.initial_states())
        assert len(states) == 4  # 2 values ^ 2 agents, single crash env
        votes = {tuple(local.init for local in state.locals) for state in states}
        assert votes == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_initial_states_include_faulty_sets_for_omissions(self):
        model = build_model(
            Scenario(exchange="floodset", num_agents=2, max_faulty=1, failures="sending")
        )
        states = list(model.initial_states())
        envs = {state.env for state in states}
        assert envs == {frozenset(), frozenset({0}), frozenset({1})}

    def test_successors_without_failures_merge_all_values(self, small_model):
        state = next(
            s for s in small_model.initial_states()
            if tuple(local.init for local in s.locals) == (0, 1)
        )
        successors = list(small_model.successors(state, (NOOP, NOOP), 0))
        # At least one successor has both agents with the full seen set
        # (nobody crashed), and successors where one agent crashed exist too.
        full = [
            s for s in successors
            if all(local.seen == (True, True) for local in s.locals)
            and s.env == (False, False)
        ]
        assert full
        crashed_envs = {s.env for s in successors}
        assert (True, False) in crashed_envs and (False, True) in crashed_envs

    def test_decided_flag_is_set_centrally(self, small_model):
        state = list(small_model.initial_states())[0]
        successors = list(small_model.successors(state, (0, NOOP), 0))
        assert all(s.locals[0].decided and s.locals[0].decision == 0 for s in successors)
        assert all(not s.locals[1].decided for s in successors)

    def test_eval_atom_kinds(self, small_model):
        state = next(
            s for s in small_model.initial_states()
            if tuple(local.init for local in s.locals) == (0, 1)
        )
        assert small_model.eval_atom(state, 0, ("init", 0, 0))
        assert not small_model.eval_atom(state, 0, ("init", 0, 1))
        assert small_model.eval_atom(state, 0, ("exists", 1))
        assert not small_model.eval_atom(state, 0, ("decided", 0))
        assert not small_model.eval_atom(state, 0, ("decision", 0, 0))
        assert not small_model.eval_atom(state, 0, ("some_decided", 0))
        assert small_model.eval_atom(state, 0, ("nonfaulty", 0))
        assert small_model.eval_atom(state, 0, ("time", 0))
        assert not small_model.eval_atom(state, 0, ("time", 1))
        assert small_model.eval_atom(state, 0, ("obs", 0, "values_received[0]", True))
        assert small_model.eval_atom(
            state, 0, ("decides_now", 0, 1), joint_action=(1, NOOP)
        )

    def test_eval_atom_unknown_key_raises(self, small_model):
        state = list(small_model.initial_states())[0]
        with pytest.raises(KeyError):
            small_model.eval_atom(state, 0, ("mystery", 1))
        with pytest.raises(KeyError):
            small_model.eval_atom(state, 0, ("obs", 0, "unknown_feature", 1))

    def test_decides_now_requires_joint_action(self, small_model):
        state = list(small_model.initial_states())[0]
        with pytest.raises(ValueError):
            small_model.eval_atom(state, 0, ("decides_now", 0, 0))


class TestLevelledSpace:
    def test_build_space_has_expected_shape(self, small_model):
        space = build_space(small_model, None)
        assert space.horizon == small_model.default_horizon() == 3
        assert len(space.levels) == 4
        assert len(space.actions) == 4
        assert len(space.successors) == 3
        assert space.num_states() == sum(len(level) for level in space.levels)

    def test_states_are_deduplicated_within_levels(self, small_model):
        space = build_space(small_model, None)
        for level in space.levels:
            assert len(level) == len(set(level))

    def test_successor_indices_are_valid(self, small_model):
        space = build_space(small_model, None)
        for time, edges in enumerate(space.successors):
            for targets in edges:
                assert targets, "every state must have at least one successor"
                assert all(0 <= t < len(space.levels[time + 1]) for t in targets)

    def test_points_accessors(self, small_model):
        space = build_space(small_model, None)
        point = (0, 0)
        assert isinstance(space.state_at(point), GlobalState)
        assert space.action_at(point) == (NOOP, NOOP)

    def test_observation_groups_partition_each_level(self, small_model):
        space = build_space(small_model, None)
        for time in range(len(space.levels)):
            groups = space.observation_groups(time, 0)
            members = sorted(index for group in groups.values() for index in group)
            assert members == list(range(len(space.levels[time])))

    def test_extend_requires_actions(self, small_model):
        space = LevelledSpace.initial(small_model)
        with pytest.raises(ValueError):
            space.extend()

    def test_set_actions_validates_level_and_length(self, small_model):
        space = LevelledSpace.initial(small_model)
        with pytest.raises(ValueError):
            space.set_actions(1, [])
        with pytest.raises(ValueError):
            space.set_actions(0, [])

    def test_state_budget_is_enforced(self, small_model):
        with pytest.raises(SpaceBudgetExceeded):
            build_space(small_model, None, max_states=10)

    def test_joint_actions_respect_decided_and_crashed(self, small_model):
        space = LevelledSpace.initial(small_model)
        actions = joint_actions_for_level(space, 0, lambda agent, local, time: 1)
        assert all(action == (1, 1) for action in actions)
        # After everyone decides at time 0, nobody decides again at time 1.
        space.set_actions(0, actions)
        space.extend()
        next_actions = joint_actions_for_level(space, 1, lambda agent, local, time: 0)
        assert all(action == (NOOP, NOOP) for action in next_actions)

    def test_custom_horizon(self, small_model):
        space = build_space(small_model, None, horizon=1)
        assert len(space.levels) == 2

    def test_noop_rule(self):
        assert noop_rule(0, None, 0) is NOOP


FLOODSET_4_2 = Scenario(exchange="floodset", num_agents=4, max_faulty=2)


class TestAdvance:
    def test_advance_grows_one_level_per_step(self, small_model):
        space = LevelledSpace.initial(small_model)
        for level in range(space.horizon):
            assert space.advance(noop_rule) is True
            assert (len(space.actions), len(space.levels)) == (level + 1, level + 2)
        assert space.advance(noop_rule) is False
        assert len(space.actions) == len(space.levels) == space.horizon + 1

    def test_advance_on_a_complete_space_raises(self, small_model):
        space = build_space(small_model, None)
        with pytest.raises(ValueError):
            space.advance(noop_rule)

    def test_a_bust_leaves_actions_on_the_levels_within_budget(self):
        model = build_model(FLOODSET_4_2)
        space = LevelledSpace.initial(model, max_states=500)
        with pytest.raises(SpaceBudgetExceeded):
            while space.advance(literature_protocol(FLOODSET_4_2)):
                pass
        # Levels 0-1 hold 452 states; level 2 takes the total to 744.
        assert [len(level) for level in space.levels] == [16, 436, 292]
        assert len(space.actions) == 2

    @pytest.mark.parametrize("max_states", [10, 100, 500, 1000, 3000])
    def test_the_bust_point_does_not_depend_on_the_horizon(self, max_states):
        model = build_model(FLOODSET_4_2)
        protocol = literature_protocol(FLOODSET_4_2)
        sizes = [len(level) for level in build_space(model, protocol).levels]
        assert sizes == [16, 436, 292, 244, 620]
        for horizon in range(len(sizes)):
            if sum(sizes[: horizon + 1]) > max_states:
                with pytest.raises(SpaceBudgetExceeded):
                    build_space(model, protocol, horizon=horizon, max_states=max_states)
            else:
                space = build_space(model, protocol, horizon=horizon,
                                    max_states=max_states)
                assert [len(level) for level in space.levels] == sizes[: horizon + 1]
