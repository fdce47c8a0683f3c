"""Sum-of-products covers of boolean functions, and their certification.

This module holds the result type of the two minimisation backends
(:mod:`repro.core.minimize` — exact Quine–McCluskey — and
:mod:`repro.core.espresso` — the heuristic cube-list minimiser): a
:class:`Cover` is a tuple of :data:`Implicant` terms over ``k`` named boolean
variables, renderable as the DNF conditions that MCK substitutes for template
variables.  Both backends work on packed cubes and build this tuple form
once, when they return.

Because the heuristic backend only *approximates* minimality, every cover it
returns can be **certified** against the specification it was minimised from:
:func:`certify_cover` checks, without ever enumerating the ``2**k`` point
space, that

* every on-set point is covered,
* no off-set point is covered (don't-cares — everything unspecified — may go
  either way),
* each implicant is prime (no literal can be dropped without hitting the
  off-set) and none is redundant, when the backend claims so.

The off-set may be given explicitly (the usual case: the specification is a
truth table over the *reachable* observations, everything else is a
don't-care) or implicitly as the complement of the on-set (``off_set=None``:
a fully specified function).  The implicit case never materialises the
complement: an implicant with ``f`` free variables covers exactly ``2**f``
points, so it stays inside the on-set iff it covers ``2**f`` on-set points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

#: An implicant over ``k`` boolean variables: a tuple with one entry per
#: variable, each ``True`` (positive literal), ``False`` (negative literal) or
#: ``None`` (don't care / variable eliminated).
Implicant = Tuple[Optional[bool], ...]


@dataclass(frozen=True)
class Cover:
    """A minimised sum-of-products cover of a boolean function."""

    num_variables: int
    implicants: Tuple[Implicant, ...]

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the cover on a full variable assignment."""
        return any(implicant_matches(implicant, assignment) for implicant in self.implicants)

    def evaluate_index(self, index: int) -> bool:
        """Evaluate the cover on a minterm index (variable 0 = MSB)."""
        return any(
            implicant_covers_index(implicant, index, self.num_variables)
            for implicant in self.implicants
        )

    def render(self, names: Sequence[str]) -> str:
        """Render as a human-readable DNF using the given variable names.

        Literals within a term appear in variable order (the order of
        ``names``); negative literals are prefixed with ``~``.
        """
        if not self.implicants:
            return "False"
        terms = []
        for implicant in self.implicants:
            literals = []
            for position, polarity in enumerate(implicant):
                if polarity is None:
                    continue
                literal = names[position] if polarity else f"~{names[position]}"
                literals.append(literal)
            terms.append(" & ".join(literals) if literals else "True")
        return " | ".join(terms)

    def literal_count(self) -> int:
        """Total number of literals across all implicants (a cost measure)."""
        return sum(
            1 for implicant in self.implicants for value in implicant if value is not None
        )


def implicant_matches(implicant: Implicant, assignment: Sequence[bool]) -> bool:
    """Whether the implicant covers the given full assignment."""
    return all(
        polarity is None or bool(assignment[position]) == polarity
        for position, polarity in enumerate(implicant)
    )


def implicant_covers_index(implicant: Implicant, index: int, num_variables: int) -> bool:
    """Whether the implicant covers the given minterm index."""
    for position, polarity in enumerate(implicant):
        if polarity is None:
            continue
        if bool((index >> (num_variables - 1 - position)) & 1) != polarity:
            return False
    return True


def assignment_to_index(assignment: Sequence[bool]) -> int:
    """Pack a tuple of variable values into a minterm index (variable 0 = MSB)."""
    index = 0
    for value in assignment:
        index = (index << 1) | int(bool(value))
    return index


def free_count(implicant: Implicant) -> int:
    """Number of unconstrained variables of the implicant."""
    return sum(1 for value in implicant if value is None)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverCertificate:
    """Outcome of checking a cover against its on/off specification.

    ``ok`` requires exact agreement on the specified points; the primality and
    redundancy fields are advisory (they are only violations when the backend
    *claimed* a prime/irredundant cover).
    """

    #: On-set minterm indices the cover fails to cover.
    uncovered_on: Tuple[int, ...]
    #: Off-set minterm indices the cover wrongly covers.
    violated_off: Tuple[int, ...]
    #: Implicants that are not prime (some literal can still be dropped).
    non_prime: Tuple[Implicant, ...]
    #: Implicants whose on-set points are all covered by other implicants.
    redundant: Tuple[Implicant, ...]

    @property
    def ok(self) -> bool:
        """True when the cover matches the specification exactly."""
        return not self.uncovered_on and not self.violated_off

    @property
    def prime_and_irredundant(self) -> bool:
        """True when additionally every implicant is prime and none redundant."""
        return self.ok and not self.non_prime and not self.redundant


def _implicant_on_count(implicant: Implicant, on_set: Set[int], num_variables: int) -> int:
    return sum(
        1 for term in on_set if implicant_covers_index(implicant, term, num_variables)
    )


def _covers_off(
    implicant: Implicant,
    on_set: Set[int],
    off_set: Optional[Set[int]],
    num_variables: int,
) -> bool:
    """Whether the implicant covers any off-set point.

    With an explicit off-set this is a direct membership scan.  With the
    implicit complement off-set (``off_set=None``) the implicant covers
    ``2**free`` points, so it avoids the off-set iff all of them are on-set
    points — a count, not an enumeration.
    """
    if off_set is not None:
        return any(
            implicant_covers_index(implicant, term, num_variables) for term in off_set
        )
    return _implicant_on_count(implicant, on_set, num_variables) != (
        1 << free_count(implicant)
    )


def certify_cover(
    cover: Cover,
    on_set: Iterable[int],
    off_set: Optional[Iterable[int]] = None,
) -> CoverCertificate:
    """Certify a cover against its on-set and (explicit or implicit) off-set.

    ``off_set=None`` means the function is fully specified: the off-set is the
    complement of the on-set.  Unspecified points (present in neither set when
    ``off_set`` is given) are don't-cares and are not checked.
    """
    on = set(on_set)
    off = None if off_set is None else set(off_set)
    if off is not None and on & off:
        raise ValueError("on-set and off-set overlap")
    k = cover.num_variables

    uncovered_on = tuple(sorted(term for term in on if not cover.evaluate_index(term)))
    if off is not None:
        violated_off = tuple(sorted(term for term in off if cover.evaluate_index(term)))
    else:
        violated_off = tuple(
            sorted(
                {
                    term
                    for implicant in cover.implicants
                    if _covers_off(implicant, on, None, k)
                    for term in _off_witnesses(implicant, on, k)
                }
            )
        )

    non_prime = []
    for implicant in cover.implicants:
        for position, polarity in enumerate(implicant):
            if polarity is None:
                continue
            raised = implicant[:position] + (None,) + implicant[position + 1 :]
            if not _covers_off(raised, on, off, k):
                non_prime.append(implicant)
                break

    redundant = []
    for index, implicant in enumerate(cover.implicants):
        others = cover.implicants[:index] + cover.implicants[index + 1 :]
        owned = [
            term
            for term in on
            if implicant_covers_index(implicant, term, k)
            and not any(implicant_covers_index(other, term, k) for other in others)
        ]
        if not owned:
            redundant.append(implicant)

    return CoverCertificate(
        uncovered_on=uncovered_on,
        violated_off=violated_off,
        non_prime=tuple(non_prime),
        redundant=tuple(redundant),
    )


def _off_witnesses(implicant: Implicant, on_set: Set[int], num_variables: int) -> list:
    """A few concrete complement points covered by an implicant (for reports).

    Walks the implicant's points lazily and stops after the first witness, so
    the full ``2**free`` expansion is never materialised.
    """
    free_positions = [
        position for position, value in enumerate(implicant) if value is None
    ]
    base = 0
    for position, value in enumerate(implicant):
        if value:
            base |= 1 << (num_variables - 1 - position)
    for pattern in range(1 << len(free_positions)):
        term = base
        for offset, position in enumerate(free_positions):
            if (pattern >> offset) & 1:
                term |= 1 << (num_variables - 1 - position)
        if term not in on_set:
            return [term]
    return []
