"""Unit tests for observation predicates and condition tables."""

import pytest

from repro.core.cover import assignment_to_index
from repro.core.espresso import espresso_minimise
from repro.core.minimize import minimise
from repro.core.predicates import (
    ConditionTable,
    ObservationPredicate,
    build_predicate,
)


def _predicate(positive, reachable, features, agent=0, time=1):
    return build_predicate(agent, time, positive, reachable, features)


@pytest.fixture
def boolean_predicate():
    reachable = {(True,), (False,)}
    features = {(True,): {"seen": True}, (False,): {"seen": False}}
    return _predicate({(True,)}, reachable, features)


@pytest.fixture
def count_predicate():
    reachable = {(True, 1), (True, 2), (False, 2)}
    features = {
        (True, 1): {"seen": True, "count": 1},
        (True, 2): {"seen": True, "count": 2},
        (False, 2): {"seen": False, "count": 2},
    }
    return _predicate({(True, 1)}, reachable, features)


class TestObservationPredicate:
    def test_holds_and_reachability(self, boolean_predicate):
        assert boolean_predicate.holds((True,))
        assert not boolean_predicate.holds((False,))
        assert boolean_predicate.is_reachable((False,))
        assert not boolean_predicate.is_reachable((True, True))

    def test_always_true_and_false(self):
        reachable = {(1,), (2,)}
        features = {(1,): {"x": 1}, (2,): {"x": 2}}
        empty = _predicate(set(), reachable, features)
        full = _predicate(reachable, reachable, features)
        assert empty.always_false() and not empty.always_true()
        assert full.always_true() and not full.always_false()
        assert empty.describe() == "False"
        assert full.describe() == "True"

    def test_describe_boolean_feature(self, boolean_predicate):
        assert boolean_predicate.describe() == "seen"

    def test_describe_expands_non_boolean_features(self, count_predicate):
        # The integer-valued count feature is expanded into equality literals;
        # the predicate holds only at the count=1 observation, so the
        # minimised description must mention the count (either positively as
        # count=1 or negatively as ~count=2) and must not be constant.
        description = count_predicate.describe()
        assert description not in ("True", "False")
        assert "count=" in description

    def test_positive_must_be_reachable(self):
        with pytest.raises(ValueError):
            _predicate({(True,)}, {(False,)}, {(False,): {"seen": False}})

    def test_describe_backends_agree_semantically(self, count_predicate):
        # Both backends, run on the predicate's own truth table, may pick
        # different covers but must classify every reachable observation
        # identically.
        names, table = count_predicate._boolean_table()
        on_set = [assignment_to_index(row) for row, value in table.items() if value]
        off_set = [assignment_to_index(row) for row, value in table.items() if not value]
        specified = set(on_set) | set(off_set)
        dont_cares = [index for index in range(2 ** len(names)) if index not in specified]
        for cover in (
            count_predicate.minimised_cover()[1],
            minimise(len(names), on_set, dont_cares),
            espresso_minimise(len(names), on_set, off_set),
        ):
            for observation in count_predicate.reachable:
                features = count_predicate.features_of[observation]
                assignment = []
                for name in names:
                    if "=" in name:
                        feature, value = name.split("=")
                        assignment.append(str(features[feature]) == value)
                    else:
                        assignment.append(bool(features[name]))
                assert cover.evaluate(assignment) == count_predicate.holds(
                    observation
                ), cover

    def test_minimised_cover_matches_positive_set(self, count_predicate):
        names, cover = count_predicate.minimised_cover()
        assert len(names) >= 2
        # Evaluate the cover on every reachable observation and compare.
        for observation in count_predicate.reachable:
            features = count_predicate.features_of[observation]
            assignment = []
            for name in names:
                if "=" in name:
                    feature, value = name.split("=")
                    assignment.append(str(features[feature]) == value)
                else:
                    assignment.append(bool(features[name]))
            assert cover.evaluate(assignment) == count_predicate.holds(observation)


class TestConditionTable:
    def _table(self):
        table = ConditionTable()
        reachable = {(True,), (False,)}
        features = {(True,): {"seen": True}, (False,): {"seen": False}}
        table.add(_predicate({(True,)}, reachable, features, agent=0, time=1), label=0)
        table.add(_predicate(set(), reachable, features, agent=0, time=0), label=0)
        table.add(_predicate({(True,)}, reachable, features, agent=1, time=1), label=0)
        return table

    def test_accessors(self):
        table = self._table()
        assert table.get(0, 1, 0) is not None
        assert table.get(0, 2, 0) is None
        assert table.labels() == [0]
        assert table.times() == [0, 1]
        assert table.agents() == [0, 1]

    def test_describe_lists_every_entry(self):
        description = self._table().describe()
        assert description.count("agent") == 3
        assert "seen" in description

    def test_check_hypothesis_confirmed(self):
        table = self._table()
        report = table.check_hypothesis(
            0, lambda agent, time, features: time >= 1 and features["seen"]
        )
        assert report.confirmed
        assert report.checked == 6
        assert "confirmed" in report.summary()

    def test_check_hypothesis_mismatch(self):
        table = self._table()
        report = table.check_hypothesis(0, lambda agent, time, features: True)
        assert not report.confirmed
        assert report.mismatches
        assert "mismatch" in report.summary()

    def test_check_hypothesis_ignores_other_labels(self):
        table = self._table()
        report = table.check_hypothesis(
            1, lambda agent, time, features: False
        )
        assert report.checked == 0
        assert report.confirmed
