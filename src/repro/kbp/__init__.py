"""Implementation verification for the paper's knowledge-based programs.

:mod:`repro.kbp.implementation` checks that a concrete decision protocol
implements the SBA program ``P`` (Section 5) or the EBA program ``P0``
(Section 8): in the system generated by the protocol, the protocol's
concrete guards must be equivalent to the program's knowledge guards.  Both
checks run one loop over the points of the protocol's space against per-level
guard tables, whose knowledge conditions are the evaluators synthesis uses
(:mod:`repro.core.synthesis`).  This is the formal content of the paper's
"does the protocol decide at the earliest time the knowledge condition
holds" experiments.
"""

from repro.kbp.implementation import (
    ImplementationMismatch,
    ImplementationReport,
    verify_eba_implementation,
    verify_sba_implementation,
)

__all__ = [
    "ImplementationMismatch",
    "ImplementationReport",
    "verify_sba_implementation",
    "verify_eba_implementation",
]
