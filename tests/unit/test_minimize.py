"""Unit tests for the Quine-McCluskey minimiser and the backend front door."""

from itertools import product

import repro.core.minimize as minimize_module
from repro.core.espresso import cube_to_implicant, espresso_minimise, minterm_cube
from repro.core.minimize import (
    ESPRESSO_VARIABLE_THRESHOLD,
    Cover,
    minimise,
    prime_implicants,
    truth_table_minimise,
)


def _brute_force_equivalent(cover: Cover, num_variables: int, on_set, dont_cares=()):
    """The cover must match the on-set exactly outside the don't-care set."""
    dont_cares = set(dont_cares)
    for index in range(2 ** num_variables):
        if index in dont_cares:
            continue
        assignment = [
            bool((index >> (num_variables - 1 - position)) & 1)
            for position in range(num_variables)
        ]
        expected = index in set(on_set)
        assert cover.evaluate(assignment) == expected, f"mismatch at {assignment}"


def test_minimise_empty_function_is_false():
    cover = minimise(3, [])
    assert cover.implicants == ()
    assert not cover.evaluate([True, True, True])
    assert cover.render(["a", "b", "c"]) == "False"


def test_minimise_tautology_collapses_to_single_term():
    cover = minimise(2, [0, 1, 2, 3])
    assert len(cover.implicants) == 1
    assert cover.implicants[0] == (None, None)
    assert cover.render(["a", "b"]) == "True"


def test_minimise_classic_example():
    # f(a,b,c,d) = sum of minterms 4,8,10,11,12,15 with DC 9,14 — a classic
    # Quine-McCluskey textbook exercise.
    on_set = [4, 8, 10, 11, 12, 15]
    dont_cares = [9, 14]
    cover = minimise(4, on_set, dont_cares)
    _brute_force_equivalent(cover, 4, on_set, dont_cares)
    # The minimal cover has at most 3 implicants for this function.
    assert len(cover.implicants) <= 3


def test_minimise_xor_cannot_be_reduced():
    on_set = [1, 2]  # a xor b
    cover = minimise(2, on_set)
    _brute_force_equivalent(cover, 2, on_set)
    assert len(cover.implicants) == 2


def test_minimise_single_variable_projection():
    # f(a, b) = a: minterms 2 and 3.
    cover = minimise(2, [2, 3])
    assert cover.implicants == ((True, None),)
    assert cover.render(["a", "b"]) == "a"


def test_prime_implicants_of_adjacent_minterms_merge():
    primes = prime_implicants(3, [0, 1])
    assert {cube_to_implicant(cube, 3) for cube in primes} == {(False, False, None)}


def test_truth_table_minimise_uses_unspecified_rows_as_dont_cares():
    # Only three of the four rows are reachable; the unreachable row may be
    # classified arbitrarily, allowing a single-literal answer.
    table = {
        (True, True): True,
        (True, False): True,
        (False, False): False,
    }
    cover = truth_table_minimise(table)
    names = ["a", "b"]
    assert cover.render(names) == "a"


def test_render_uses_negative_literals():
    # f(a, b) = ~a & b
    cover = minimise(2, [1])
    assert cover.render(["a", "b"]) == "~a & b"


def test_cover_evaluate_agrees_with_render_semantics():
    on_set = [1, 3, 5, 7]  # f = d (last variable) over 3 variables
    cover = minimise(3, on_set)
    for assignment in product([False, True], repeat=3):
        assert cover.evaluate(list(assignment)) == assignment[2]


# ---------------------------------------------------------------------------
# Cover edge cases
# ---------------------------------------------------------------------------


def test_empty_cover_is_constant_false():
    cover = Cover(num_variables=2, implicants=())
    assert not cover.evaluate([True, True])
    assert not cover.evaluate_index(3)
    assert cover.render(["a", "b"]) == "False"
    assert cover.literal_count() == 0


def test_tautology_cover_is_constant_true():
    cover = Cover(num_variables=2, implicants=((None, None),))
    for assignment in product([False, True], repeat=2):
        assert cover.evaluate(list(assignment))
    assert cover.render(["a", "b"]) == "True"
    assert cover.literal_count() == 0


def test_zero_variable_functions():
    assert minimise(0, [0]).implicants == ((),)
    assert minimise(0, []).implicants == ()
    assert Cover(0, ((),)).evaluate([]) is True
    assert Cover(0, ()).evaluate([]) is False
    assert Cover(0, ((),)).render([]) == "True"
    assert truth_table_minimise({(): True}).render([]) == "True"
    assert truth_table_minimise({(): False}).render([]) == "False"
    assert truth_table_minimise({}).implicants == ()


def test_render_orders_literals_by_variable_position():
    cover = Cover(num_variables=3, implicants=((False, None, True),))
    # Literals appear in names order regardless of polarity: ~a before c.
    assert cover.render(["a", "b", "c"]) == "~a & c"


def test_greedy_cover_no_progress_guard_terminates(monkeypatch):
    """A prime set that cannot cover the on-set must not loop forever.

    ``prime_implicants`` can never legitimately return such a set, but the
    greedy loop guards against it; simulate the impossible input and check
    ``minimise`` terminates with the partial cover instead of spinning.
    """

    def broken_primes(num_variables, minterms, dont_cares=()):
        return {minterm_cube(3, num_variables)}  # covers minterm 3 only, never 0

    monkeypatch.setattr(minimize_module, "prime_implicants", broken_primes)
    cover = minimize_module.minimise(2, [0, 3])
    assert cover.implicants == ((True, True),)
    assert not cover.evaluate_index(0)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


def _sparse_table(num_variables):
    def assignment(index):
        return tuple(
            bool((index >> (num_variables - 1 - position)) & 1)
            for position in range(num_variables)
        )

    return {assignment(0): False, assignment(1): True, assignment(3): True}


def _sparse_sets(num_variables):
    """On, off and don't-care minterms of ``_sparse_table(num_variables)``."""
    on_set, off_set = [1, 3], [0]
    dont_cares = [index for index in range(2**num_variables) if index not in (0, 1, 3)]
    return on_set, off_set, dont_cares


def test_explicit_methods_agree_on_specified_rows():
    on_set, off_set, dont_cares = _sparse_sets(4)
    qm = minimise(4, on_set, dont_cares)
    es = espresso_minimise(4, on_set, off_set)
    for assignment, value in _sparse_table(4).items():
        assert qm.evaluate(assignment) == value
        assert es.evaluate(assignment) == value


def test_auto_switches_to_espresso_above_threshold():
    wide = _sparse_table(ESPRESSO_VARIABLE_THRESHOLD + 1)
    called = {}
    original = minimize_module.espresso_minimise

    def spy(*args, **kwargs):
        called["espresso"] = True
        return original(*args, **kwargs)

    minimize_module.espresso_minimise = spy
    try:
        cover = truth_table_minimise(wide)
    finally:
        minimize_module.espresso_minimise = original
    assert called.get("espresso")
    for assignment, value in wide.items():
        assert cover.evaluate(assignment) == value


def test_auto_uses_exact_backend_below_threshold():
    on_set, _, dont_cares = _sparse_sets(3)
    auto = truth_table_minimise(_sparse_table(3))
    qm = minimise(3, on_set, dont_cares)
    assert auto == qm
