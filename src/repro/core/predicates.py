"""Synthesized decision conditions as predicates over observations.

The clock-semantics synthesizer determines, for every agent, time and
decision label, the set of *observations* at which the corresponding
knowledge condition holds.  This module wraps those sets as
:class:`ObservationPredicate` objects that can be

* queried (``holds(observation)``),
* compared against closed-form hypotheses such as the paper's conditions
  (2) and (3) — see :meth:`ConditionTable.check_hypothesis`,
* rendered as simplified boolean conditions over the exchange's named
  observable features (the analogue of MCK's synthesized ``define``
  statements), minimised by :func:`repro.core.minimize.truth_table_minimise`,
  which picks its backend from the feature-variable count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.core.minimize import Cover, truth_table_minimise

#: A hypothesis maps (agent, time, features) to the predicted truth value.
Hypothesis = Callable[[int, int, Mapping[str, Hashable]], bool]


@dataclass(frozen=True)
class ObservationPredicate:
    """A predicate over the observations reachable at a given agent and time."""

    agent: int
    time: int
    positive: FrozenSet[Tuple]
    reachable: FrozenSet[Tuple]
    features_of: Mapping[Tuple, Mapping[str, Hashable]] = field(default_factory=dict)

    def holds(self, observation: Tuple) -> bool:
        """Whether the condition holds at the given observation."""
        return observation in self.positive

    def is_reachable(self, observation: Tuple) -> bool:
        """Whether the observation is reachable at this agent and time."""
        return observation in self.reachable

    def always_false(self) -> bool:
        """True when the condition holds at no reachable observation."""
        return not self.positive

    def always_true(self) -> bool:
        """True when the condition holds at every reachable observation."""
        return self.positive == self.reachable

    def describe(self) -> str:
        """Render the condition as a simplified boolean formula.

        Non-boolean features (such as ``count``) are expanded into equality
        literals ``feature=value`` per value occurring among the reachable
        observations; boolean features are used directly.  The result is the
        analogue of the predicates MCK substitutes for template variables.
        """
        if self.always_false():
            return "False"
        if self.always_true():
            return "True"
        names, cover = self.minimised_cover()
        return cover.render(names)

    def minimised_cover(self) -> Tuple[List[str], Cover]:
        """The variable names and minimised cover used by :meth:`describe`."""
        names, table = self._boolean_table()
        return names, truth_table_minimise(table)

    def _boolean_table(self) -> Tuple[List[str], Dict[Tuple[bool, ...], bool]]:
        # The observation table is sorted before minimisation: ``reachable``
        # is a frozenset of tuples that usually contain strings, so its
        # iteration order varies with PYTHONHASHSEED, and the minimisers'
        # covers depend on the order rows are presented.  Sorting makes
        # ``describe()`` byte-identical across processes and hash seeds.
        ordered = sorted(self.reachable, key=repr)
        feature_values: Dict[str, set] = {}
        for observation in ordered:
            for feature, value in self.features_of[observation].items():
                feature_values.setdefault(feature, set()).add(value)

        names: List[str] = []
        encoders: List[Tuple[str, Hashable]] = []
        for feature in sorted(feature_values):
            values = feature_values[feature]
            if values <= {True, False}:
                names.append(feature)
                encoders.append((feature, True))
            else:
                for value in sorted(values, key=repr):
                    names.append(f"{feature}={value}")
                    encoders.append((feature, value))

        table: Dict[Tuple[bool, ...], bool] = {}
        for observation in ordered:
            features = self.features_of[observation]
            assignment = tuple(
                bool(features[feature] == expected) if expected is not True
                else bool(features[feature])
                for feature, expected in encoders
            )
            table[assignment] = observation in self.positive
        return names, table


@dataclass
class ConditionTable:
    """Synthesized conditions indexed by (agent, time, label).

    For SBA the label is the decision value ``v`` (the condition
    ``B^N_i CB_N ∃v``); for EBA the labels are ``"decide0"`` and
    ``"decide1"``.
    """

    conditions: Dict[Tuple[int, int, Hashable], ObservationPredicate] = field(
        default_factory=dict
    )

    def add(self, predicate: ObservationPredicate, label: Hashable) -> None:
        """Record the predicate for (agent, time, label)."""
        self.conditions[(predicate.agent, predicate.time, label)] = predicate

    def get(self, agent: int, time: int, label: Hashable) -> Optional[ObservationPredicate]:
        """The predicate for (agent, time, label), if recorded."""
        return self.conditions.get((agent, time, label))

    def labels(self) -> List[Hashable]:
        """All distinct labels in the table."""
        return sorted({label for (_, _, label) in self.conditions}, key=repr)

    def times(self) -> List[int]:
        """All times for which conditions were recorded."""
        return sorted({time for (_, time, _) in self.conditions})

    def agents(self) -> List[int]:
        """All agents for which conditions were recorded."""
        return sorted({agent for (agent, _, _) in self.conditions})

    # ------------------------------------------------------------ hypotheses

    def check_hypothesis(
        self, label: Hashable, hypothesis: Hypothesis
    ) -> "HypothesisReport":
        """Compare the synthesized condition for ``label`` with a hypothesis.

        The hypothesis is evaluated on every reachable observation (through
        its named features) and must agree with the synthesized condition
        everywhere for the report to count as confirmed.
        """
        mismatches: List[Tuple[int, int, Tuple, bool, bool]] = []
        checked = 0
        for (agent, time, this_label), predicate in sorted(
            self.conditions.items(), key=lambda item: (item[0][1], item[0][0], repr(item[0][2]))
        ):
            if this_label != label:
                continue
            for observation in sorted(predicate.reachable, key=repr):
                checked += 1
                predicted = bool(
                    hypothesis(agent, time, predicate.features_of[observation])
                )
                actual = predicate.holds(observation)
                if predicted != actual:
                    mismatches.append((agent, time, observation, actual, predicted))
        return HypothesisReport(label=label, checked=checked, mismatches=mismatches)

    def describe(self) -> str:
        """Human-readable rendering of every synthesized condition."""
        lines: List[str] = []
        for (agent, time, label), predicate in sorted(
            self.conditions.items(), key=lambda item: (item[0][1], item[0][0], repr(item[0][2]))
        ):
            lines.append(
                f"agent {agent}, time {time}, {label}: {predicate.describe()}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class HypothesisReport:
    """Result of comparing a synthesized condition with a hypothesis."""

    label: Hashable
    checked: int
    mismatches: List[Tuple[int, int, Tuple, bool, bool]]

    @property
    def confirmed(self) -> bool:
        """True when the hypothesis agrees with the synthesized condition."""
        return not self.mismatches

    def summary(self) -> str:
        """A one-line summary suitable for experiment logs."""
        status = "confirmed" if self.confirmed else f"{len(self.mismatches)} mismatches"
        return f"hypothesis for {self.label!r}: {status} over {self.checked} observations"


def build_predicate(
    agent: int,
    time: int,
    positive: Iterable[Tuple],
    reachable: Iterable[Tuple],
    features_of: Mapping[Tuple, Mapping[str, Hashable]],
) -> ObservationPredicate:
    """Convenience constructor validating that positives are reachable."""
    positive_set = frozenset(positive)
    reachable_set = frozenset(reachable)
    if not positive_set <= reachable_set:
        raise ValueError("positive observations must be reachable")
    return ObservationPredicate(
        agent=agent,
        time=time,
        positive=positive_set,
        reachable=reachable_set,
        features_of=dict(features_of),
    )
