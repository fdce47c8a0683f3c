"""Two-level minimisation of boolean functions (exact and heuristic backends).

The synthesizer produces decision conditions as sets of observations.  To
present them the way MCK presents its synthesized ``define`` statements (and
the way the paper states conditions (2) and (3)), we minimise the
characteristic function of the condition over the observation features.

Both backends work on the packed :data:`~repro.core.espresso.Cube` form (two
bits per variable) and build the tuple-form :class:`~repro.core.cover.Cover`
once, when they return:

* :func:`minimise` — the classic **Quine–McCluskey** procedure with a greedy
  prime-implicant cover (essential primes first, then largest coverage).  It
  is exact in the sense that the returned implicants cover exactly the
  on-set and never a point of the off-set; the cover is not guaranteed to be
  of globally minimal size, which is acceptable for presentation purposes.
  Each merge is found by neighbour lookup: a cube that binds a variable to
  False has exactly one partner, the same cube with that variable True.  Its
  cost grows with the *number of specified-or-don't-care minterms*, so it
  degrades exponentially when a sparse truth table over many variables turns
  the complement into don't-cares.
* :func:`~repro.core.espresso.espresso_minimise` — the heuristic cube-list
  minimiser (EXPAND / IRREDUNDANT / REDUCE), whose cost scales with the
  number of *specified* rows only.  Covers are prime and irredundant but may
  be slightly larger than the exact optimum.

:func:`truth_table_minimise` is the front door used by
:mod:`repro.core.predicates`: the variable count alone picks the backend
(:data:`ESPRESSO_VARIABLE_THRESHOLD`), and the don't-care set is represented
implicitly — as the complement of the specified assignments — so no caller
ever materialises ``2**k`` points.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.cover import Cover, Implicant, assignment_to_index
from repro.core.espresso import (
    Cube,
    cube_free_count,
    cube_order_key,
    cube_to_implicant,
    espresso_minimise,
    minterm_cube,
)

__all__ = [
    "Cover",
    "Implicant",
    "ESPRESSO_VARIABLE_THRESHOLD",
    "minimise",
    "prime_implicants",
    "truth_table_minimise",
]

#: Above this many variables :func:`truth_table_minimise` switches from the
#: exact Quine–McCluskey backend to the espresso-style heuristic.  At eight
#: variables the implicit don't-care complement is at most 256 minterms,
#: which QM handles in milliseconds; beyond that its prime enumeration blows
#: up (the ROADMAP repro: ~2 minutes for a 10-variable condition with 7
#: specified rows).
ESPRESSO_VARIABLE_THRESHOLD = 8


def prime_implicants(
    num_variables: int, minterms: Iterable[int], dont_cares: Iterable[int] = ()
) -> Set[Cube]:
    """All prime implicants of the function given by its on-set and DC-set."""
    current: Set[Cube] = {
        minterm_cube(term, num_variables) for term in set(minterms) | set(dont_cares)
    }
    primes: Set[Cube] = set()
    while current:
        merged: Set[Cube] = set()
        next_level: Set[Cube] = set()
        for cube in sorted(current):
            for position in range(num_variables):
                shift = 2 * position
                if (cube >> shift) & 3 != 1:
                    continue
                # The partner binds this variable to True instead of False.
                partner = cube ^ (3 << shift)
                if partner in current:
                    next_level.add(cube | (3 << shift))
                    merged.add(cube)
                    merged.add(partner)
        primes.update(current - merged)
        current = next_level
    return primes


def minimise(
    num_variables: int,
    minterms: Iterable[int],
    dont_cares: Iterable[int] = (),
) -> Cover:
    """Minimise a boolean function given by minterm indices (Quine–McCluskey).

    Minterm ``m`` assigns variable ``j`` the value of bit
    ``num_variables - 1 - j`` of ``m`` (variable 0 is the most significant
    bit), matching the usual truth-table convention.  ``dont_cares`` may be
    any iterable (including a lazy generator): it is consumed once.
    """
    on_set = sorted(set(minterms))
    dc_set = set(dont_cares) - set(on_set)
    if not on_set:
        return Cover(num_variables=num_variables, implicants=())
    if num_variables == 0:
        return Cover(num_variables=0, implicants=((),))

    primes = prime_implicants(num_variables, on_set, dc_set)
    on_cubes = [minterm_cube(term, num_variables) for term in on_set]

    def order(cube: Cube) -> Tuple[int, ...]:
        return cube_order_key(cube, num_variables)

    # Coverage bookkeeping on packed bitmasks: bit p of a coverage mask stands
    # for on-set minterm on_set[p], so subset/overlap tests on the greedy
    # cover are single integer operations.  Greedy ties below break by
    # iteration position, so the primes are walked in a fixed order.
    coverage: Dict[Cube, int] = {}
    for prime in sorted(primes, key=order):
        covered = 0
        for position, on in enumerate(on_cubes):
            if on | prime == prime:
                covered |= 1 << position
        if covered:
            coverage[prime] = covered

    chosen: List[Cube] = []
    uncovered = (1 << len(on_set)) - 1

    # Essential prime implicants first.
    for position in range(len(on_set)):
        term_bit = 1 << position
        covering = [prime for prime, covered in coverage.items() if covered & term_bit]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            uncovered &= ~coverage[covering[0]]

    # Greedy cover for the rest.
    while uncovered:
        best = max(
            coverage.items(),
            key=lambda item: (
                (item[1] & uncovered).bit_count(),
                cube_free_count(item[0], num_variables),
            ),
        )[0]
        if not coverage[best] & uncovered:
            # No progress is possible; should not happen, but guard anyway.
            break
        chosen.append(best)
        uncovered &= ~coverage[best]

    implicants = tuple(
        cube_to_implicant(cube, num_variables) for cube in sorted(set(chosen), key=order)
    )
    return Cover(num_variables=num_variables, implicants=implicants)


def truth_table_minimise(assignments: Dict[Tuple[bool, ...], bool]) -> Cover:
    """Minimise a function given as a mapping from assignments to values.

    Assignments missing from the mapping are don't-cares (unreachable
    observations may be classified arbitrarily).  The don't-care set is only
    ever represented implicitly, as the complement of the specified
    assignments — it is never materialised as a ``2**num_variables``
    collection.

    Up to :data:`ESPRESSO_VARIABLE_THRESHOLD` variables the exact
    Quine–McCluskey backend runs; above it, where QM's implicit-complement
    expansion becomes intractable, the espresso heuristic (prime and
    irredundant, but possibly non-minimal) does.
    """
    if not assignments:
        return Cover(num_variables=0, implicants=())
    num_variables = len(next(iter(assignments)))
    on_set: List[int] = []
    off_set: List[int] = []
    for assignment, value in assignments.items():
        (on_set if value else off_set).append(assignment_to_index(assignment))

    if num_variables > ESPRESSO_VARIABLE_THRESHOLD:
        return espresso_minimise(num_variables, on_set, off_set)

    # Lazy complement of the specified assignments; only small tables get
    # here, so expanding it is cheap.
    specified = set(on_set) | set(off_set)
    dont_cares = (index for index in range(2**num_variables) if index not in specified)
    return minimise(num_variables, on_set, dont_cares)
