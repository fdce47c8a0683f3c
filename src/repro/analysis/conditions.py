"""Closed-form decision conditions from the paper, as checkable hypotheses.

The paper reports three qualitative findings for SBA under crash failures
(Sections 7.1–7.3), which this module expresses as hypotheses over the
observable features of the exchanges so that they can be compared with the
conditions synthesized by :func:`repro.core.synthesis.synthesize_sba`:

* **Condition (2), FloodSet**: the knowledge condition ``B^N_i CB_N ∃v``
  first holds at the *critical time* ``n - 1`` when ``t >= n - 1`` and
  ``t + 1`` otherwise, and at (and after) that time it is equivalent to
  ``values_received[v]``.
* **Condition (3), Count-FloodSet**: additionally, the condition holds as
  soon as ``count <= 1`` (all other agents have crashed), but ``count <= 2``
  does not suffice.
* **Diff**: remembering the previous count gives no stronger SBA condition
  than the single count.

The hypotheses are checked against the synthesized
:class:`~repro.core.predicates.ObservationPredicate` tables: synthesis
evaluates the knowledge conditions as packed per-level bitmasks (see
:func:`repro.core.synthesis._level_knowledge_conditions` and
``docs/ARCHITECTURE.md``) and projects them onto observation groups, so this
module only ever sees observation-level predicates and their named features.

Note on the ``t >= n - 1`` corner of condition (3): the paper states the
general-time disjunct for the count exchange as ``time = t`` whereas the
FloodSet condition (2) uses ``time = n - 1``.  In our model the synthesized
count condition at that corner coincides with the FloodSet critical time
``n - 1`` (adding the count cannot delay the FloodSet decision in our
semantics); the two agree whenever ``t = n - 1`` and differ only at ``t = n``.
The hypothesis below uses the critical time ``n - 1``; see EXPERIMENTS.md for
the discussion.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.core.synthesis import SBASynthesisResult
from repro.protocols.sba import floodset_critical_time

Features = Mapping[str, Hashable]


def naive_floodset_hypothesis(num_agents: int, max_faulty: int, value: int):
    """The textbook hypothesis: the condition first holds at time ``t + 1``.

    The paper's first experiment shows this to be *false* when
    ``t >= n - 1`` (e.g. ``n = 3, t = 2``): the condition already holds at
    time ``n - 1``.
    """

    def hypothesis(agent: int, time: int, features: Features) -> bool:
        return time >= max_faulty + 1 and bool(features[f"values_received[{value}]"])

    return hypothesis


def floodset_condition_hypothesis(num_agents: int, max_faulty: int, value: int):
    """The paper's condition (2) for the FloodSet exchange."""
    critical = floodset_critical_time(num_agents, max_faulty)

    def hypothesis(agent: int, time: int, features: Features) -> bool:
        return time >= critical and bool(features[f"values_received[{value}]"])

    return hypothesis


def count_condition_hypothesis(num_agents: int, max_faulty: int, value: int):
    """The paper's condition (3) for the Count-FloodSet exchange.

    ``count <= 1`` (only the agent itself is left) enables an immediate
    decision; otherwise the FloodSet critical time applies.  ``count == 0``
    identifies an agent that has itself crashed, for which the belief
    condition holds vacuously (the agent knows it is not in ``N``).
    """
    critical = floodset_critical_time(num_agents, max_faulty)

    def hypothesis(agent: int, time: int, features: Features) -> bool:
        count = features["count"]
        seen = bool(features[f"values_received[{value}]"])
        if time == 0:
            return False
        if count == 0:
            return True
        if count <= 1 and seen:
            return True
        return time >= critical and seen

    return hypothesis


def check_count_le_two_insufficient(result: SBASynthesisResult) -> bool:
    """Check the paper's remark that ``count <= 2`` does not enable a decision.

    Returns ``True`` when there exists a reachable observation, before the
    critical time, with ``count == 2`` and the value seen but the synthesized
    condition false — i.e. ``count <= 2`` alone is *not* a sufficient early
    exit.  Instances in which no such observation is reachable (e.g. very
    small ``n``) return ``False``.
    """
    model = result.model
    critical = floodset_critical_time(model.num_agents, model.max_faulty)
    for (agent, time, label), predicate in result.conditions.conditions.items():
        if not isinstance(label, int) or time == 0 or time >= critical:
            continue
        for observation in predicate.reachable:
            features = predicate.features_of[observation]
            if (
                features["count"] == 2
                and features[f"values_received[{label}]"]
                and not predicate.holds(observation)
            ):
                return True
    return False


def check_diff_no_improvement(
    diff_result: SBASynthesisResult, count_result: SBASynthesisResult
) -> bool:
    """Check that the Diff exchange admits no earlier SBA decision than Count.

    The Diff observation extends the Count observation with the previous
    round's count.  The check projects every reachable Diff observation onto
    its Count part (seen values and current count) and verifies that the
    synthesized Diff condition agrees with the synthesized Count condition on
    the projection — i.e. remembering the previous count does not refine the
    decision condition.
    """
    for (agent, time, label), diff_pred in diff_result.conditions.conditions.items():
        count_pred = count_result.conditions.get(agent, time, label)
        if count_pred is None:
            return False
        count_by_obs = {
            observation: count_pred.holds(observation)
            for observation in count_pred.reachable
        }
        for observation in diff_pred.reachable:
            seen, count, _prev = observation
            projected = (seen, count)
            if projected not in count_by_obs:
                # The projection must be reachable in the Count model too.
                return False
            if diff_pred.holds(observation) != count_by_obs[projected]:
                return False
    return True
