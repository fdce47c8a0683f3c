"""The paper's primary contribution, reimplemented.

This subpackage contains the epistemic model checker and the
knowledge-based-program synthesizer that play the role of MCK in the paper:

* :mod:`repro.core.checker` — model checking of knowledge, common belief
  (greatest fixpoints) and bounded CTL temporal operators over levelled state
  spaces, under the clock semantics of knowledge, on packed per-level
  bitsets.
* :mod:`repro.core.bitset` — the packed satisfaction-set representation and
  its conversions to/from the legacy ``List[Set[int]]`` form.
* :mod:`repro.core.reference` — the retained set-based evaluator
  (:class:`~repro.core.reference.SetChecker`), the oracle for property tests
  and the baseline for the checker benchmark.
* :mod:`repro.core.synthesis` — synthesis of the unique clock-semantics
  implementation of the knowledge-based programs for SBA and EBA.
* :mod:`repro.core.predicates` — synthesized conditions as sets of
  observations, comparison against hypothesised closed-form conditions, and
  rendering as minimised boolean formulas.
* :mod:`repro.core.cover` — the shared sum-of-products :class:`Cover`
  representation and the certification helpers that check any returned cover
  against its on/off specification.
* :mod:`repro.core.minimize` — exact Quine–McCluskey two-level minimisation
  and the ``truth_table_minimise`` front door, which picks the backend by
  variable count.
* :mod:`repro.core.espresso` — the positional bit-pair cubes both
  minimisers work on, and the espresso-style heuristic cube-list minimiser
  (EXPAND / IRREDUNDANT / REDUCE) used for wide observation alphabets.
"""

from repro.core.bitset import BitSat, from_level_sets, to_level_sets
from repro.core.checker import ModelChecker, SatSet
from repro.core.reference import SetChecker
from repro.core.synthesis import (
    EBASynthesisResult,
    SBASynthesisResult,
    synthesize_eba,
    synthesize_sba,
)
from repro.core.predicates import ConditionTable, ObservationPredicate

__all__ = [
    "ModelChecker",
    "SetChecker",
    "SatSet",
    "BitSat",
    "from_level_sets",
    "to_level_sets",
    "SBASynthesisResult",
    "EBASynthesisResult",
    "synthesize_sba",
    "synthesize_eba",
    "ConditionTable",
    "ObservationPredicate",
]
