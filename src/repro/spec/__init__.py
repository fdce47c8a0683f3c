"""Specifications of the consensus problems and the optimality order.

* :mod:`repro.spec.sba` — Simultaneous Byzantine Agreement: Unique-Decision,
  Simultaneous-Agreement(N), Validity(N) and Termination, both as formulas
  for the model checker and as run-level checks.
* :mod:`repro.spec.eba` — Eventual Byzantine Agreement: Agreement(N),
  Validity(N) and Termination, whose formulas are SBA's (EBA drops only
  simultaneity), and the run-level check.
* :mod:`repro.spec.optimality` — the order ``P <=_{E,F} P'`` over
  corresponding runs and the derived notions of optimal and optimum
  protocols (Section 4 of the paper).
"""

from repro.spec.sba import (
    sba_agreement_formula,
    sba_simultaneity_formula,
    sba_spec_formulas,
    sba_termination_formula,
    sba_uniform_agreement_formula,
    sba_validity_formula,
    check_sba_run,
)
from repro.spec.eba import check_eba_run, eba_spec_formulas
from repro.spec.optimality import (
    OptimalityReport,
    RunComparison,
    compare_protocols,
    never_later,
    strictly_earlier_somewhere,
)

__all__ = [
    "sba_agreement_formula",
    "sba_uniform_agreement_formula",
    "sba_validity_formula",
    "sba_simultaneity_formula",
    "sba_termination_formula",
    "sba_spec_formulas",
    "check_sba_run",
    "eba_spec_formulas",
    "check_eba_run",
    "OptimalityReport",
    "RunComparison",
    "compare_protocols",
    "never_later",
    "strictly_earlier_somewhere",
]
