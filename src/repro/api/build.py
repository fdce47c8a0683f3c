"""Construction of models and literature protocols from a :class:`Scenario`.

These are the pure builders behind the facade: :func:`build_model` turns a
scenario into the Byzantine-Agreement model ``(E, F)`` and
:func:`literature_protocol` picks the concrete protocol from the literature
that the paper model-checks for that exchange (the revised/optimal variant
when the scenario's ``optimal_protocol`` flag is set).
"""

from __future__ import annotations

from repro.api.scenario import Scenario
from repro.exchanges import exchange_by_name
from repro.failures import failure_model_by_name
from repro.protocols.eba import EBasicProtocol, EMinProtocol
from repro.protocols.sba import (
    CountConditionProtocol,
    DworkMosesProtocol,
    FloodSetRevisedProtocol,
    FloodSetStandardProtocol,
)
from repro.systems.model import BAModel


def build_model(scenario: Scenario) -> BAModel:
    """The Byzantine-Agreement model ``(E, F)`` for a scenario."""
    exchange = exchange_by_name(
        scenario.exchange,
        scenario.num_agents,
        scenario.num_values,
        scenario.max_faulty,
    )
    failures = failure_model_by_name(
        scenario.failures, scenario.num_agents, scenario.max_faulty
    )
    return BAModel(exchange, failures)


def literature_protocol(scenario: Scenario):
    """The literature protocol the paper model-checks for a scenario.

    For SBA exchanges the ``optimal_protocol`` flag selects the revised
    (knowledge-optimal) variant where the literature has one; Dwork–Moses
    is its own optimal protocol.  EBA exchanges each have exactly one
    literature protocol.
    """
    n, t = scenario.num_agents, scenario.max_faulty
    exchange = scenario.exchange
    if exchange == "floodset":
        return FloodSetRevisedProtocol(n, t) if scenario.optimal_protocol \
            else FloodSetStandardProtocol(n, t)
    if exchange in ("count", "diff"):
        return CountConditionProtocol(n, t) if scenario.optimal_protocol \
            else FloodSetStandardProtocol(n, t)
    if exchange == "dwork-moses":
        return DworkMosesProtocol(n, t)
    if exchange == "emin":
        return EMinProtocol(n, t)
    if exchange == "ebasic":
        return EBasicProtocol(n, t)
    raise ValueError(f"no literature protocol for exchange {exchange!r}")
