"""Reproduction of *Model Checking and Synthesis for Optimal Use of Knowledge
in Consensus Protocols* (PODC 2025).

The package provides:

* an epistemic model checker on packed per-level bitsets and a
  knowledge-based-program synthesizer under the clock semantics of
  knowledge (:mod:`repro.core`), with the set-based reference checker
  (:class:`~repro.core.reference.SetChecker`) kept as the test oracle,
* the information exchanges and failure models studied by the paper
  (:mod:`repro.exchanges`, :mod:`repro.failures`),
* the concrete decision protocols from the literature
  (:mod:`repro.protocols`),
* specifications and optimality analyses for Simultaneous and Eventual
  Byzantine Agreement (:mod:`repro.spec`, :mod:`repro.analysis`),
* a benchmark harness that regenerates the paper's tables
  (:mod:`repro.harness`).

The public facade is :mod:`repro.api` — a validated, hashable
:class:`~repro.api.Scenario`, a memoising :class:`~repro.api.Session`, a
versioned typed result schema, and the ``repro serve`` JSON service.

Quick start::

    from repro import Scenario, Session

    session = Session()
    scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
    result = session.synthesis_artifact(scenario)
    print(result.conditions.describe())
"""

from repro.version import __version__
from repro.api import (
    CheckResult,
    Scenario,
    Session,
    SynthesisResult,
    build_model,
    result_from_json,
)
from repro.engines import DEFAULT_ENGINE, ENGINES, checker_for
from repro.core.synthesis import synthesize_eba, synthesize_sba
from repro.core.checker import ModelChecker
from repro.systems.model import BAModel
from repro.systems.space import build_space

__all__ = [
    "__version__",
    "CheckResult",
    "Scenario",
    "Session",
    "SynthesisResult",
    "build_model",
    "result_from_json",
    "checker_for",
    "synthesize_sba",
    "synthesize_eba",
    "ModelChecker",
    "BAModel",
    "build_space",
    "DEFAULT_ENGINE",
    "ENGINES",
]
