"""Summaries of the earliest times at which the knowledge conditions hold.

Consumes the observation-level predicates of an
:class:`~repro.core.synthesis.SBASynthesisResult`; the underlying knowledge
conditions are evaluated by synthesis as packed per-level bitmasks and
projected onto observation groups before they reach this module.  The
renderings are the predicates' own ``describe()`` text, minimised by the
backend the variable count picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.core.synthesis import SBASynthesisResult


@dataclass(frozen=True)
class EarliestDecisionSummary:
    """Earliest decision opportunities derived from a synthesis result."""

    #: Earliest time at which the condition holds for some value at some
    #: reachable observation (None if it never holds within the horizon).
    earliest_any: Optional[int]
    #: Earliest time at which the condition holds at *every* reachable
    #: observation where the value has been seen (the "general" decision time).
    earliest_general: Optional[int]
    #: Per time, the number of reachable observations (agent 0) at which the
    #: condition holds for some value.
    per_time_counts: Dict[int, int]


def earliest_condition_renderings(
    result: SBASynthesisResult, agent: int = 0
) -> Dict[Hashable, str]:
    """For each decision value, the minimised condition at its earliest time.

    Renders, per value, the synthesized condition of ``agent`` at the first
    time the condition holds at some reachable observation — the formula the
    paper would present for that decision opportunity.  Values whose
    condition never holds within the horizon are omitted.  Each rendering
    is :meth:`~repro.core.predicates.ObservationPredicate.describe`, so the
    variable count alone picks the minimiser.
    """
    renderings: Dict[Hashable, str] = {}
    for value in result.model.values():
        for time in range(result.space.horizon + 1):
            predicate = result.conditions.get(agent, time, value)
            if predicate is not None and not predicate.always_false():
                renderings[value] = predicate.describe()
                break
    return renderings


def earliest_decision_summary(result: SBASynthesisResult) -> EarliestDecisionSummary:
    """Summarise when the synthesized SBA condition first becomes usable.

    The summary looks at agent 0 (the models are symmetric in the agents) and
    aggregates over the decision values.
    """
    model = result.model
    per_time_counts: Dict[int, int] = {}
    earliest_any: Optional[int] = None
    earliest_general: Optional[int] = None

    for time in range(result.space.horizon + 1):
        positive_observations = set()
        general = True
        for value in model.values():
            predicate = result.conditions.get(0, time, value)
            if predicate is None:
                general = False
                continue
            positive_observations |= predicate.positive
            for observation in predicate.reachable:
                features = predicate.features_of[observation]
                seen_key = f"values_received[{value}]"
                seen = bool(features.get(seen_key, False))
                crashed = features.get("count", 1) == 0
                if seen and not crashed and not predicate.holds(observation):
                    general = False
        count = len(positive_observations)
        per_time_counts[time] = count
        if count and earliest_any is None:
            earliest_any = time
        if general and time > 0 and earliest_general is None:
            earliest_general = time

    return EarliestDecisionSummary(
        earliest_any=earliest_any,
        earliest_general=earliest_general,
        per_time_counts=per_time_counts,
    )
