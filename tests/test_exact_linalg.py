import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import families
from leavitt_ibn import (
    IntMatrix,
    augmented_ranks,
    criterion_system,
    incidence_matrix,
    matrix_vector,
    rank,
    solve_particular,
)
from leavitt_ibn.errors import DimensionMismatch, EmptyGraph, UnknownVertex

matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_int_matrix_shape_checks():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.at(1, 0) == 3
    assert m.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])


def test_incidence_matrix_ex26(ex26):
    order = ("v1", "v2", "v3")
    assert incidence_matrix(ex26, order) == IntMatrix.from_rows(
        [[2, 1, 0], [0, 1, 1], [0, 0, 0]]
    )
    # defaults to the graph's own vertex order
    assert incidence_matrix(ex26) == incidence_matrix(ex26, order)


def test_incidence_matrix_respects_order(ex26):
    permuted = incidence_matrix(ex26, ("v3", "v2", "v1"))
    assert permuted == IntMatrix.from_rows([[0, 0, 0], [1, 1, 0], [0, 1, 2]])
    with pytest.raises(UnknownVertex):
        incidence_matrix(ex26, ("v1", "v2"))
    with pytest.raises(UnknownVertex):
        incidence_matrix(ex26, ("v1", "v2", "v2"))


def test_criterion_system_ex26(ex26):
    system = criterion_system(ex26)
    assert system.order == ("v1", "v2", "v3")
    assert system.z == 2
    assert system.matrix == IntMatrix.from_rows([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert system.rhs == (1, 1, 1)


def test_criterion_system_f29(f29):
    system = criterion_system(f29)
    assert system.matrix == IntMatrix.from_rows([[1, 0, 0], [1, -1, 0], [0, 1, 0]])
    assert system.z == 2


def test_criterion_system_e29(e29):
    system = criterion_system(e29)
    assert system.matrix == IntMatrix.from_rows(
        [[-1, 0, 0, 0], [1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, 0]]
    )
    assert system.z == 3


def test_criterion_system_trivial(triv):
    system = criterion_system(triv)
    assert system.matrix == IntMatrix.from_rows([[0]])
    assert system.z == 0


def test_criterion_system_empty_graph():
    from leavitt_ibn import build_graph

    with pytest.raises(EmptyGraph):
        criterion_system(build_graph([], []))


def test_rank_frozen_values(ex26, f29):
    assert rank(criterion_system(ex26).matrix) == 2
    assert rank(criterion_system(f29).matrix) == 2
    assert rank(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(IntMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(IntMatrix.from_rows([[2, 4], [1, 2]])) == 1


def test_augmented_ranks_fixture_values(ex26, f29):
    sys26 = criterion_system(ex26)
    assert augmented_ranks(sys26.matrix, sys26.rhs) == (2, 2)
    sys29 = criterion_system(f29)
    assert augmented_ranks(sys29.matrix, sys29.rhs) == (2, 3)
    with pytest.raises(DimensionMismatch):
        augmented_ranks(sys26.matrix, (1, 1))


def test_augmented_ranks_agree_with_separate_ranks():
    rng = random.Random(families.RANDOM_MATRIX_SEED + 7)
    for _ in range(300):
        rows = families.random_int_matrix(rng, max_dim=6)
        m = IntMatrix.from_rows(rows)
        rhs = [rng.randint(-5, 5) for _ in range(m.rows)]
        rank_m, rank_aug = augmented_ranks(m, rhs)
        assert rank_m == rank(m)
        assert rank_aug == rank(IntMatrix.from_rows([r + [b] for r, b in zip(rows, rhs)]))
        assert rank_aug - rank_m in (0, 1)


def test_rank_matches_independent_rational_elimination():
    rng = random.Random(families.RANDOM_MATRIX_SEED + 13)
    for _ in range(300):
        rows = families.random_int_matrix(rng)
        assert rank(IntMatrix.from_rows(rows)) == families.rational_elimination_rank(rows)


@given(matrices)
def test_rank_invariant_under_transpose(rows):
    m = IntMatrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


def test_solve_particular_ex26(ex26):
    system = criterion_system(ex26)
    x = solve_particular(system.matrix, system.rhs)
    assert x == (Fraction(1), Fraction(1), Fraction(0))
    assert matrix_vector(system.matrix, x) == (Fraction(1),) * 3


def test_solve_particular_e29(e29):
    system = criterion_system(e29)
    x = solve_particular(system.matrix, system.rhs)
    assert x == (Fraction(-1), Fraction(2), Fraction(1), Fraction(0))


def test_solve_particular_inconsistent(f29):
    system = criterion_system(f29)
    assert solve_particular(system.matrix, system.rhs) is None


def test_solve_particular_free_variables_are_zero():
    m = IntMatrix.from_rows([[1, 2, 0], [0, 0, 0]])
    x = solve_particular(m, (3, 0))
    assert x == (Fraction(3), Fraction(0), Fraction(0))


def test_solve_particular_shape_check():
    m = IntMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        solve_particular(m, (1,))
    with pytest.raises(DimensionMismatch):
        matrix_vector(m, (Fraction(1),))


def test_solve_particular_recheck_on_random_consistent_systems():
    rng = random.Random(families.RANDOM_MATRIX_SEED + 21)
    for _ in range(200):
        rows = families.random_int_matrix(rng, max_dim=5)
        m = IntMatrix.from_rows(rows)
        planted = [Fraction(rng.randint(-4, 4)) for _ in range(m.cols)]
        rhs = matrix_vector(m, planted)
        x = solve_particular(m, [int(r) for r in rhs])
        assert x is not None
        assert matrix_vector(m, x) == rhs


def _rank_deficient_rows(rng):
    # every row a small combination of fewer base rows
    cols = rng.randint(1, 6)
    base = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
    rows = []
    for _ in range(rng.randint(len(base) + 1, 7)):
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)])
    return rows


def test_solve_particular_matches_rational_rref_on_rank_deficient_systems():
    rng = random.Random(families.RANDOM_MATRIX_SEED + 34)
    outcomes = set()
    for _ in range(400):
        rows = _rank_deficient_rows(rng)
        m = IntMatrix.from_rows(rows)
        if rng.random() < 0.5:
            planted = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.cols)]
            rhs = [int(r * 6) for r in matrix_vector(m, planted)]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(m.rows)]
        want = families.rational_particular_solution(rows, rhs)
        assert solve_particular(m, rhs) == want
        outcomes.add(want is None)
    assert outcomes == {True, False}  # both consistent and inconsistent seen


def test_solve_particular_matches_rational_rref_on_criterion_systems():
    for g in families.all_graphs(3, 2):
        system = criterion_system(g)
        want = families.rational_particular_solution(
            system.matrix.row_lists(), system.rhs
        )
        assert solve_particular(system.matrix, system.rhs) == want
