"""Espresso vs. Quine–McCluskey: oracle-backed equivalence property tests.

The heuristic minimiser may return different (possibly larger) covers than
the exact backend, but both must realise the *same function* on every
specified point.  This suite checks that:

* **exhaustively**, for every truth table on up to 4 variables, the espresso
  and QM covers agree with the table (and with each other) on every point,
  and the espresso covers are certifiably prime and irredundant;
* for **seeded-random** partial tables up to 12 variables (don't-cares as
  the implicit complement), every cover matches the specified on-set, never
  hits a specified off-point, and espresso's prime/irredundant claim holds
  (:func:`repro.core.cover.certify_cover` — the certification itself never
  expands the don't-care set);
* the **unate-recursion tautology oracle** agrees with brute-force
  enumeration on random small cube lists.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cover import certify_cover
from repro.core.espresso import (
    cover_is_tautology,
    espresso_minimise,
    full_cube,
    minterm_cube,
    tautology,
)
from repro.core.minimize import minimise, truth_table_minimise

#: Certify (primality/irredundancy, the expensive part) every Nth table of
#: the k=4 exhaustive sweep; on-set/off-set agreement is still checked on all
#: of them.  Smaller widths are certified exhaustively.
CERTIFY_STRIDE = 13


def _index_to_assignment(index, num_variables):
    return tuple(
        bool((index >> (num_variables - 1 - position)) & 1)
        for position in range(num_variables)
    )


@pytest.mark.parametrize("num_variables", [1, 2, 3])
def test_exhaustive_equivalence_small_widths(num_variables):
    """All fully specified tables on <=3 variables, both backends, certified."""
    size = 1 << num_variables
    for bits in range(1 << size):
        on_set = [index for index in range(size) if (bits >> index) & 1]
        qm = minimise(num_variables, on_set)
        es = espresso_minimise(num_variables, on_set)
        for index in range(size):
            expected = bool((bits >> index) & 1)
            assert qm.evaluate_index(index) == expected, (bits, index)
            assert es.evaluate_index(index) == expected, (bits, index)
        certificate = certify_cover(es, on_set, None)
        assert certificate.prime_and_irredundant, (bits, certificate)


def test_exhaustive_equivalence_four_variables():
    """All 65536 fully specified 4-variable tables agree across backends."""
    num_variables, size = 4, 16
    for bits in range(1 << size):
        on_set = [index for index in range(size) if (bits >> index) & 1]
        qm = minimise(num_variables, on_set)
        es = espresso_minimise(num_variables, on_set)
        for index in range(size):
            expected = bool((bits >> index) & 1)
            assert qm.evaluate_index(index) == expected, (bits, index)
            assert es.evaluate_index(index) == expected, (bits, index)
        if bits % CERTIFY_STRIDE == 0:
            certificate = certify_cover(es, on_set, None)
            assert certificate.prime_and_irredundant, (bits, certificate)


@pytest.mark.parametrize("num_variables", list(range(5, 13)))
def test_random_partial_tables_with_dont_cares(num_variables):
    """Seeded-random sparse tables: covers match the spec, primes certified.

    The don't-care set (the complement of the specified rows) is huge for the
    larger widths — exactly the regime in which the exact backend blows up —
    so espresso covers are certified against the explicit on/off rows only,
    and QM cross-checking is restricted to the widths where its implicit-DC
    expansion is still tractable.
    """
    rng = random.Random(1000 + num_variables)
    for _ in range(20):
        universe = 1 << num_variables
        num_rows = rng.randint(1, min(universe, 40))
        rows = rng.sample(range(universe), num_rows)
        values = {row: rng.random() < 0.5 for row in rows}
        on_set = [row for row, value in values.items() if value]
        off_set = [row for row, value in values.items() if not value]

        es = espresso_minimise(num_variables, on_set, off_set)
        for row, value in values.items():
            assert es.evaluate_index(row) == value, (num_variables, row, values)
        certificate = certify_cover(es, on_set, off_set)
        assert certificate.prime_and_irredundant, (num_variables, certificate)

        if num_variables <= 8:
            dont_cares = (index for index in range(universe) if index not in values)
            qm = minimise(num_variables, on_set, dont_cares)
            for row, value in values.items():
                assert qm.evaluate_index(row) == value, (num_variables, row, values)


def test_auto_backend_matches_forced_backends_on_specified_rows():
    """The auto switch changes the backend, never the realised function."""
    rng = random.Random(7)
    for num_variables in (4, 9):
        universe = 1 << num_variables
        rows = rng.sample(range(universe), 12)
        values = {row: rng.random() < 0.5 for row in rows}
        table = {
            _index_to_assignment(row, num_variables): value
            for row, value in values.items()
        }
        on_set = [row for row, value in values.items() if value]
        off_set = [row for row, value in values.items() if not value]
        auto = truth_table_minimise(table)
        es = espresso_minimise(num_variables, on_set, off_set)
        for row, value in values.items():
            assert auto.evaluate_index(row) == value
            assert es.evaluate_index(row) == value


def test_tautology_oracle_matches_brute_force():
    """Unate-recursion tautology agrees with 2**k enumeration on small k."""
    rng = random.Random(42)
    for _ in range(500):
        num_variables = rng.randint(1, 5)
        cubes = []
        for _ in range(rng.randint(0, 6)):
            cube = 0
            for position in range(num_variables):
                cube |= rng.choice([1, 2, 3]) << (2 * position)
            cubes.append(cube)
        brute = all(
            any(
                minterm_cube(minterm, num_variables) | cube == cube
                for cube in cubes
            )
            for minterm in range(1 << num_variables)
        )
        assert tautology(num_variables, cubes) == brute, (num_variables, cubes)
    assert tautology(3, [full_cube(3)])
    assert not tautology(3, [])


def test_tautology_certifies_always_true_covers():
    """A cover of everything-specified-on is certified True by the oracle."""
    cover = espresso_minimise(6, range(64))
    assert cover_is_tautology(cover)
    partial = espresso_minimise(6, [0, 1, 2], [63])
    assert not cover_is_tautology(partial)
