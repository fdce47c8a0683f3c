"""Quine–McCluskey's prime set against the definition, by brute force.

For a function with on-set ON and don't-care set DC, an implicant is a cube
whose every point lies in ON ∪ DC, and a prime implicant is a maximal one:
no implicant strictly contains it.  Implicants are closed under shrinking,
so a cube is maximal exactly when freeing any one of its bound variables
takes it outside ON ∪ DC.  For seeded random functions of up to six
variables this oracle walks all ``3**k`` cubes, keeps the maximal
implicants and compares them with :func:`repro.core.minimize.prime_implicants`.
It decodes the packed cubes itself and shares no code with either minimiser.
"""

from __future__ import annotations

import random
from itertools import product

from repro.core.minimize import prime_implicants

#: How many random functions the oracle checks.
FUNCTIONS = 300

#: Two bits per variable, variable 0 in the low pair: 0b01 admits only
#: False, 0b10 only True, 0b11 both.
_PAIR_LITERALS = {1: False, 2: True, 3: None}


def _decode(cube: int, num_variables: int) -> tuple:
    """A packed cube as one literal per variable: False, True or None (free)."""
    return tuple(
        _PAIR_LITERALS[(cube >> (2 * position)) & 3] for position in range(num_variables)
    )


def _points(cube: tuple) -> list:
    """The minterm indices a cube covers (variable 0 is the most significant bit)."""
    choices = [(False, True) if literal is None else (literal,) for literal in cube]
    return [
        sum(int(value) << (len(cube) - 1 - position) for position, value in enumerate(point))
        for point in product(*choices)
    ]


def _maximal_implicants(num_variables: int, care: set) -> set:
    implicants = {
        cube
        for cube in product((False, True, None), repeat=num_variables)
        if all(point in care for point in _points(cube))
    }
    return {
        cube
        for cube in implicants
        if not any(
            cube[:position] + (None,) + cube[position + 1 :] in implicants
            for position, literal in enumerate(cube)
            if literal is not None
        )
    }


def test_prime_implicants_are_the_maximal_implicants():
    rng = random.Random(729)
    for _ in range(FUNCTIONS):
        num_variables = rng.randint(1, 6)
        weights = [rng.random() for _ in range(3)]
        kinds = rng.choices(("on", "dc", "off"), weights=weights, k=1 << num_variables)
        on_set = [point for point, kind in enumerate(kinds) if kind == "on"]
        dont_cares = [point for point, kind in enumerate(kinds) if kind == "dc"]

        primes = prime_implicants(num_variables, on_set, dont_cares)
        decoded = {_decode(cube, num_variables) for cube in primes}
        assert len(decoded) == len(primes), (num_variables, kinds)
        assert decoded == _maximal_implicants(num_variables, set(on_set + dont_cares)), (
            num_variables,
            kinds,
        )
