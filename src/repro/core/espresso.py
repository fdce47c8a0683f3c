"""Espresso-style heuristic two-level minimisation on packed cube lists.

This module also owns the packed :data:`Cube` form that both minimisers work
on.  The exact Quine–McCluskey backend (:mod:`repro.core.minimize`) enumerates
the prime implicants of the function *including its don't-care set*.  The
synthesized decision conditions make that explosive: the specification is a
truth table over the handful of *reachable* observations, so over ``k``
feature variables all but a few of the ``2**k`` points are don't-cares and QM
effectively minimises a near-complete function (the ROADMAP repro spends ~2
minutes on a 10-variable condition with 7 reachable rows).

This module takes the opposite approach, after Espresso-II (Brayton et al.):
keep a small *cube list* that covers the on-set, and improve it with the
classic three-phase loop

* **EXPAND** — raise literals of each cube (making it cover more points) as
  long as an oracle certifies the cube stays inside on ∪ DC.  The oracle
  never materialises the don't-care set: with an explicit off-set it checks
  that no off-point falls inside the raised cube; with the implicit
  complement off-set it counts covered on-points against the cube's
  ``2**free`` volume.  A maximally raised cube is prime by construction.
* **IRREDUNDANT** — drop cubes whose on-points are covered by the rest
  (relatively essential cubes first, then a greedy set cover).
* **REDUCE** — shrink each cube to the supercube of the on-points only it
  covers, freeing EXPAND to grow it in a different direction on the next
  pass.

Cubes are packed in positional bit-pair notation reusing the integer-bitmask
idioms of :mod:`repro.core.bitset`: variable ``j`` owns bits ``2j`` ("admits
False") and ``2j+1`` ("admits True"), so a cube over ``k`` variables is one
``2k``-bit Python int.  Intersection is ``&``, containment is a subset test
(``a | b == b``), the supercube is ``|``, and a cube covers a minterm iff the
minterm's cube is a bit-subset of it.  :func:`cube_order_key` is the one
order both backends sort their returned cubes by, and the tuple-form
:class:`~repro.core.cover.Cover` is built from the cubes only at return.

The module also provides the independent :func:`tautology` oracle (unate
recursion with binate branching) used to certify tautology claims — e.g.
that a cover covers the whole space — without enumerating ``2**k`` points.

The returned :class:`~repro.core.cover.Cover` objects are certified by the
property-test suite via :func:`repro.core.cover.certify_cover`: they cover
the on-set exactly, never touch the off-set, and are prime and irredundant.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.cover import Cover, Implicant

#: A packed cube: variable ``j`` owns bit ``2j`` (admits ``False``) and bit
#: ``2j+1`` (admits ``True``); both set means the variable is free.
Cube = int

#: How many improvement passes (REDUCE → EXPAND → IRREDUNDANT) to attempt
#: before settling for the best cover seen.  The loop stops as soon as a pass
#: fails to improve the (cube count, literal count) cost, so this is a
#: backstop, not a tuning knob.
MAX_PASSES = 8


# ---------------------------------------------------------------------------
# Cube primitives
# ---------------------------------------------------------------------------


def full_cube(num_variables: int) -> Cube:
    """The universal cube (every variable free)."""
    return (1 << (2 * num_variables)) - 1


def minterm_cube(minterm: int, num_variables: int) -> Cube:
    """The fully specified cube of a single minterm (variable 0 = MSB)."""
    cube = 0
    for position in range(num_variables):
        value = (minterm >> (num_variables - 1 - position)) & 1
        cube |= 1 << (2 * position + value)
    return cube


def implicant_to_cube(implicant: Implicant) -> Cube:
    """Pack a tuple-form implicant into positional bit-pair notation."""
    cube = 0
    for position, polarity in enumerate(implicant):
        if polarity is None:
            cube |= 3 << (2 * position)
        else:
            cube |= 1 << (2 * position + int(polarity))
    return cube


def cube_to_implicant(cube: Cube, num_variables: int) -> Implicant:
    """Unpack a cube into the tuple form shared with the QM backend."""
    literals: List[Optional[bool]] = []
    for position in range(num_variables):
        pair = (cube >> (2 * position)) & 3
        if pair == 3:
            literals.append(None)
        elif pair == 2:
            literals.append(True)
        elif pair == 1:
            literals.append(False)
        else:
            raise ValueError(f"empty cube at variable {position}")
    return tuple(literals)


def cube_order_key(cube: Cube, num_variables: int) -> Tuple[int, ...]:
    """Sort key listing each variable's bit pair, variable 0 first.

    Pairs 1, 2 and 3 stand for False, True and free, so this orders cubes as
    their implicants sort with False < True < None at each variable.
    """
    return tuple((cube >> (2 * position)) & 3 for position in range(num_variables))


def cube_contains(outer: Cube, inner: Cube) -> bool:
    """Whether every point of ``inner`` is a point of ``outer``."""
    return inner | outer == outer


def cube_free_count(cube: Cube, num_variables: int) -> int:
    """Number of free (both-bits-set) variables of the cube."""
    free = 0
    for position in range(num_variables):
        if (cube >> (2 * position)) & 3 == 3:
            free += 1
    return free


def cube_literal_count(cube: Cube, num_variables: int) -> int:
    """Number of bound variables of the cube (its literal cost)."""
    return num_variables - cube_free_count(cube, num_variables)


# ---------------------------------------------------------------------------
# The expansion oracle
# ---------------------------------------------------------------------------

#: Returns True when a candidate cube leaks outside on ∪ DC (i.e. the raise
#: that produced it must be rejected).
BlockedOracle = Callable[[Cube], bool]


def _explicit_off_oracle(off_cubes: Sequence[Cube]) -> BlockedOracle:
    """Oracle for the explicit off-set: blocked iff some off-point is covered.

    An off minterm cube ``m`` lies inside candidate ``c`` iff ``m`` is a
    bit-subset of ``c``; don't-cares never block, so they are simply absent.
    """

    def blocked(candidate: Cube) -> bool:
        return any(cube_contains(candidate, off) for off in off_cubes)

    return blocked


def _implicit_off_oracle(
    on_cubes: Sequence[Cube], num_variables: int
) -> BlockedOracle:
    """Oracle for the implicit complement off-set (fully specified function).

    A candidate with ``f`` free variables covers exactly ``2**f`` points; it
    stays inside the on-set iff all of them are on-points, i.e. iff it covers
    ``2**f`` on minterms.  This turns the exponential complement into a count
    over the (small, explicit) on-set.
    """

    def blocked(candidate: Cube) -> bool:
        covered = sum(1 for on in on_cubes if cube_contains(candidate, on))
        return covered != 1 << cube_free_count(candidate, num_variables)

    return blocked


# ---------------------------------------------------------------------------
# EXPAND / IRREDUNDANT / REDUCE
# ---------------------------------------------------------------------------


def _expand_cube(
    cube: Cube,
    num_variables: int,
    blocked: BlockedOracle,
    off_cubes: Sequence[Cube],
) -> Cube:
    """Raise literals of ``cube`` until it is prime with respect to on ∪ DC.

    Raising order is the classic directed-expansion heuristic: literals whose
    raise conflicts with the fewest off-points go first (zero-conflict raises
    are free real estate), so the cube grows toward the sparse side of the
    off-set.  Every raise is validated by the oracle against the *current*
    cube, so the result never leaks outside on ∪ DC regardless of order.
    """
    bound = [
        position
        for position in range(num_variables)
        if (cube >> (2 * position)) & 3 != 3
    ]

    def conflict_count(position: int) -> int:
        candidate = cube | (3 << (2 * position))
        return sum(1 for off in off_cubes if cube_contains(candidate, off))

    bound.sort(key=conflict_count)
    for position in bound:
        candidate = cube | (3 << (2 * position))
        if not blocked(candidate):
            cube = candidate
    return cube


def _coverage_masks(
    cubes: Sequence[Cube], on_cubes: Sequence[Cube]
) -> List[int]:
    """Per cube, the bitmask of on-set positions it covers (bitset idiom)."""
    masks = []
    for cube in cubes:
        mask = 0
        for position, on in enumerate(on_cubes):
            if cube_contains(cube, on):
                mask |= 1 << position
        masks.append(mask)
    return masks


def _irredundant(
    cubes: List[Cube], on_cubes: Sequence[Cube], num_variables: int
) -> List[Cube]:
    """A subset of ``cubes`` still covering every on-point, greedily minimal.

    Relatively essential cubes (sole cover of some on-point) are kept first;
    the remainder is a greedy set cover preferring cubes that add the most
    uncovered on-points, breaking ties toward fewer literals.
    """
    cubes = sorted(set(cubes))
    coverage = _coverage_masks(cubes, on_cubes)
    all_on = (1 << len(on_cubes)) - 1

    kept: List[Cube] = []
    covered = 0
    for position in range(len(on_cubes)):
        bit = 1 << position
        owners = [index for index, mask in enumerate(coverage) if mask & bit]
        if len(owners) == 1 and cubes[owners[0]] not in kept:
            kept.append(cubes[owners[0]])
            covered |= coverage[owners[0]]

    while covered != all_on:
        best_index = max(
            range(len(cubes)),
            key=lambda index: (
                (coverage[index] & ~covered).bit_count(),
                cube_free_count(cubes[index], num_variables),
            ),
        )
        if not coverage[best_index] & ~covered:
            # No cube adds coverage: the input did not cover the on-set.
            raise ValueError("cube list does not cover the on-set")
        kept.append(cubes[best_index])
        covered |= coverage[best_index]
    return kept


def _reduce(
    cubes: List[Cube], on_cubes: Sequence[Cube], num_variables: int
) -> List[Cube]:
    """Shrink each cube to the supercube of the on-points only it covers.

    Processed largest-first (the espresso ordering), updating as it goes, so
    total on-set coverage is preserved; cubes left covering nothing of their
    own are dropped.  The shrunken cubes give the next EXPAND room to grow in
    a different direction than the one that produced the current local
    optimum.
    """
    order = sorted(
        range(len(cubes)),
        key=lambda index: cube_free_count(cubes[index], num_variables),
        reverse=True,
    )
    current: List[Optional[Cube]] = list(cubes)
    for index in order:
        owned = [
            on
            for on in on_cubes
            if cube_contains(current[index], on)
            and not any(
                other is not None
                and other_index != index
                and cube_contains(other, on)
                for other_index, other in enumerate(current)
            )
        ]
        if not owned:
            current[index] = None
            continue
        supercube = 0
        for on in owned:
            supercube |= on
        current[index] = supercube
    return [cube for cube in current if cube is not None]


# ---------------------------------------------------------------------------
# The minimiser
# ---------------------------------------------------------------------------


def espresso_minimise(
    num_variables: int,
    on_set: Iterable[int],
    off_set: Optional[Iterable[int]] = None,
    max_passes: int = MAX_PASSES,
) -> Cover:
    """Heuristically minimise a function given by on-set (and off-set) minterms.

    ``off_set=None`` means the function is fully specified (off = complement
    of on, handled by the counting oracle); otherwise every minterm in
    neither set is a don't-care.  Neither case ever materialises the
    ``2**num_variables`` point space.

    The result covers the on-set exactly, never covers an off-point, and its
    implicants are prime and irredundant (certifiable with
    :func:`repro.core.cover.certify_cover`); unlike Quine–McCluskey it may
    miss the globally minimal cover, which is acceptable for presenting
    synthesized conditions.
    """
    on = sorted(set(on_set))
    off = None if off_set is None else sorted(set(off_set))
    if off is not None and set(on) & set(off):
        raise ValueError("on-set and off-set overlap")
    if not on:
        return Cover(num_variables=num_variables, implicants=())
    if num_variables == 0:
        return Cover(num_variables=0, implicants=((),))
    if off is not None and not off:
        # Everything specified is on and the rest is don't-care: True.
        return Cover(
            num_variables=num_variables, implicants=((None,) * num_variables,)
        )

    on_cubes = [minterm_cube(term, num_variables) for term in on]
    if off is None:
        off_cubes: List[Cube] = []
        blocked = _implicit_off_oracle(on_cubes, num_variables)
    else:
        off_cubes = [minterm_cube(term, num_variables) for term in off]
        blocked = _explicit_off_oracle(off_cubes)

    def expand_all(cubes: List[Cube]) -> List[Cube]:
        expanded = [
            _expand_cube(cube, num_variables, blocked, off_cubes) for cube in cubes
        ]
        # Drop cubes swallowed by another expanded cube (single-containment
        # filter; cheaper than full irredundancy and keeps the lists short).
        survivors: List[Cube] = []
        for cube in sorted(set(expanded), key=lambda c: -c.bit_count()):
            if not any(cube_contains(kept, cube) for kept in survivors):
                survivors.append(cube)
        return survivors

    def cost(cubes: List[Cube]) -> Tuple[int, int]:
        return (
            len(cubes),
            sum(cube_literal_count(cube, num_variables) for cube in cubes),
        )

    cubes = _irredundant(expand_all(on_cubes), on_cubes, num_variables)
    best, best_cost = cubes, cost(cubes)
    for _ in range(max_passes):
        reduced = _reduce(cubes, on_cubes, num_variables)
        cubes = _irredundant(expand_all(reduced), on_cubes, num_variables)
        new_cost = cost(cubes)
        if new_cost < best_cost:
            best, best_cost = cubes, new_cost
        else:
            break

    implicants = tuple(
        cube_to_implicant(cube, num_variables)
        for cube in sorted(best, key=lambda cube: cube_order_key(cube, num_variables))
    )
    return Cover(num_variables=num_variables, implicants=implicants)


# ---------------------------------------------------------------------------
# The unate-recursion tautology oracle
# ---------------------------------------------------------------------------


def tautology(num_variables: int, cubes: Sequence[Cube]) -> bool:
    """Whether the cube list covers every point, by unate recursion.

    The classic espresso tautology check: a unate cover (no variable appears
    in both polarities) is a tautology iff it contains the universal cube;
    otherwise branch on the most binate variable and recurse on both
    cofactors.  Never enumerates the ``2**num_variables`` point space.
    """
    universe = full_cube(num_variables)

    def cofactor(cube_list: List[Cube], position: int, value: int) -> List[Cube]:
        admit = 1 << (2 * position + value)
        raised = 3 << (2 * position)
        return [cube | raised for cube in cube_list if cube & admit]

    def recurse(cube_list: List[Cube]) -> bool:
        if any(cube == universe for cube in cube_list):
            return True
        if not cube_list:
            return False
        best_position, best_balance = -1, 0
        for position in range(num_variables):
            only_false = only_true = 0
            for cube in cube_list:
                pair = (cube >> (2 * position)) & 3
                if pair == 1:
                    only_false += 1
                elif pair == 2:
                    only_true += 1
            balance = min(only_false, only_true)
            if balance > best_balance:
                best_position, best_balance = position, balance
        if best_position < 0:
            # Unate cover: a tautology iff it contains the universal cube
            # (already checked above), so points taking the missing polarity
            # of any bound variable are uncovered.
            return False
        return recurse(cofactor(cube_list, best_position, 0)) and recurse(
            cofactor(cube_list, best_position, 1)
        )

    return recurse(list(cubes))


def cover_is_tautology(cover: Cover) -> bool:
    """Certify that a :class:`Cover` covers the whole space (unate recursion)."""
    if cover.num_variables == 0:
        return bool(cover.implicants)
    return tautology(
        cover.num_variables,
        [implicant_to_cube(implicant) for implicant in cover.implicants],
    )
