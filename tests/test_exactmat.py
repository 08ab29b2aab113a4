import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rational_matrix
from klimm import fixtures
from klimm.errors import ShapeError
from klimm.exactmat import (
    Matrix,
    antidiagonal_transpose,
    bar,
    deleted_det,
    det,
    gen_k_positive_not_higher,
    gen_totally_positive,
    has_nonpositive_minor_of_size,
    is_k_positive,
    lewis_carroll_residual,
    max_positivity_order,
    minor,
    repeat_submatrix,
    restrict,
    submatrix,
)
from klimm.grid import graph_of_upper_interval, grid

FIXTURE = fixtures.TWO_POSITIVE_NOT_THREE

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.from_rows)


def _cofactor_det(M: Matrix) -> Fraction:
    n = M.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M.entries[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = Matrix(tuple(row[:j] + row[j + 1:] for row in M.entries[1:]))
        term = M.entries[0][j] * _cofactor_det(sub)
        total += -term if j % 2 else term
    return total


def test_det_basics():
    assert det(Matrix.identity(5)) == 1
    assert det(Matrix.from_rows([[1, 2], [1, 2]])) == 0
    assert det(Matrix(())) == 1  # empty determinant
    assert minor(FIXTURE, [1, 2, 3], [1, 2, 3]) == -2
    with pytest.raises(ShapeError):
        det(Matrix.zeros(2, 3))


@given(st.one_of(square_matrices(3), square_matrices(4)))
@settings(max_examples=40, deadline=None)
def test_det_matches_cofactor_expansion(M):
    assert det(M) == _cofactor_det(M)


def test_minor_examples():
    assert minor(FIXTURE, [2], [3]) == 3
    assert minor(FIXTURE, [1, 2], [1, 2]) == 10
    assert minor(FIXTURE, [1, 2, 3, 4], [1, 2, 3, 4]) == det(FIXTURE)
    with pytest.raises(ShapeError):
        minor(FIXTURE, [1, 2], [1])
    with pytest.raises(IndexError):
        minor(FIXTURE, [1, 5], [1, 2])


def test_restrict_worked_example():
    G = graph_of_upper_interval((2, 4, 1, 3))
    assert restrict(FIXTURE, G) == fixtures.RESTRICTED_TO_2413_GRAPH
    full = grid(4, [(i, j) for i in range(1, 5) for j in range(1, 5)])
    assert restrict(FIXTURE, full) == FIXTURE
    assert restrict(FIXTURE, grid(4, [])) == Matrix.zeros(4, 4)
    with pytest.raises(ShapeError):
        restrict(FIXTURE, grid(3, []))


def test_repeat_submatrix_examples():
    m = FIXTURE.rows
    assert repeat_submatrix(FIXTURE, range(1, m + 1), range(1, m + 1)) == FIXTURE
    assert repeat_submatrix(FIXTURE, (1, 1, 3), (2, 3, 4)) == \
        fixtures.REPEATED_113_234
    with pytest.raises(IndexError):
        repeat_submatrix(FIXTURE, (1, 2, 5), (1, 2, 3))


def test_k_positivity_of_fixture():
    assert is_k_positive(FIXTURE, 2)
    assert not is_k_positive(FIXTURE, 3)
    assert max_positivity_order(FIXTURE) == 2
    assert not is_k_positive(Matrix.from_rows([[1, -1], [1, 1]]), 1)
    assert max_positivity_order(Matrix.identity(3)) == 0
    with pytest.raises(ValueError):
        is_k_positive(FIXTURE, 5)


def test_k_positivity_is_monotone_in_k():
    rng = random.Random(3)
    for _ in range(5):
        M = random_rational_matrix(4, rng, span=9, den=3)
        orders = [is_k_positive(M, k) if max_positivity_order(M) >= 0 else None
                  for k in range(1, 5)]
        # once False, stays False
        seen_false = False
        for value in orders:
            if seen_false:
                assert not value
            seen_false = seen_false or not value


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_totally_positive(n):
    M = gen_totally_positive(n, seed=17)
    assert max_positivity_order(M) == n


def test_generators_are_deterministic():
    assert gen_totally_positive(4, seed=5) == gen_totally_positive(4, seed=5)
    assert gen_totally_positive(4, seed=5) != gen_totally_positive(4, seed=6)
    a = gen_k_positive_not_higher(3, 2, seed=1, budget=2000)
    b = gen_k_positive_not_higher(3, 2, seed=1, budget=2000)
    assert a == b


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (4, 3)])
def test_strictly_k_positive_sampling(n, k):
    M = gen_k_positive_not_higher(n, k, seed=11, budget=4000)
    assert M is not None
    assert is_k_positive(M, k)
    assert has_nonpositive_minor_of_size(M, k + 1)
    assert max_positivity_order(M) == k


def test_strict_sampling_budget_exhaustion_returns_none():
    assert gen_k_positive_not_higher(4, 2, seed=1, budget=0) is None


def test_lewis_carroll_small_and_fixture():
    two = Matrix.from_rows([[3, 5], [7, 11]])
    assert lewis_carroll_residual(two, 1, 2, 1, 2) == 0
    assert lewis_carroll_residual(FIXTURE, 1, 2, 1, 2) == 0
    with pytest.raises(IndexError):
        lewis_carroll_residual(FIXTURE, 2, 1, 1, 2)
    with pytest.raises(ShapeError):
        lewis_carroll_residual(Matrix.from_rows([[1]]), 1, 1, 1, 1)


@given(square_matrices(5), st.data())
@settings(max_examples=25, deadline=None)
def test_lewis_carroll_residual_vanishes(M, data):
    a = data.draw(st.integers(1, 4))
    a2 = data.draw(st.integers(a + 1, 5))
    b = data.draw(st.integers(1, 4))
    b2 = data.draw(st.integers(b + 1, 5))
    assert lewis_carroll_residual(M, a, a2, b, b2) == 0


def test_antidiagonal_transpose():
    flipped = antidiagonal_transpose(FIXTURE)
    assert flipped.entry(1, 1) == FIXTURE.entry(4, 4)
    assert flipped.entry(1, 4) == FIXTURE.entry(1, 4)
    assert antidiagonal_transpose(flipped) == FIXTURE
    assert det(flipped) == det(FIXTURE)
    assert max_positivity_order(flipped) == max_positivity_order(FIXTURE)


@given(square_matrices(4))
@settings(max_examples=30, deadline=None)
def test_antidiagonal_transpose_preserves_det(M):
    assert det(antidiagonal_transpose(M)) == det(M)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_antidiagonal_transpose_preserves_positivity(n):
    M = gen_totally_positive(n, seed=23)
    assert max_positivity_order(antidiagonal_transpose(M)) == n


def test_bar():
    assert bar((2, 3, 4), 4) == (1, 2, 3)
    assert bar(bar((1, 1, 3), 4), 4) == (1, 1, 3)
    with pytest.raises(ValueError):
        bar((0, 1), 3)


def test_deleted_det_and_submatrix():
    assert deleted_det(FIXTURE, {1}, {1}) == minor(FIXTURE, [2, 3, 4], [2, 3, 4])
    assert deleted_det(FIXTURE, {1, 2, 3, 4}, {1, 2, 3, 4}) == 1
    assert submatrix(FIXTURE, [1, 2], [3, 4]).entries == ((6, 3), (3, 2))
    # The deleted index sets are read once, not once per kept row.
    assert deleted_det(FIXTURE, {2}, {2}) == -7
    assert deleted_det(FIXTURE, iter([2]), iter([2])) == -7


def test_minor_equals_repeat_submatrix_det_on_strict_sets():
    rng = random.Random(6)
    for _ in range(5):
        M = random_rational_matrix(5, rng, span=30, den=7)
        rows = tuple(sorted(rng.sample(range(1, 6), 3)))
        cols = tuple(sorted(rng.sample(range(1, 6), 3)))
        assert minor(M, rows, cols) == det(repeat_submatrix(M, rows, cols))


def test_matrix_doc_round_trip():
    doc = FIXTURE.to_doc()
    assert Matrix.from_doc(doc) == FIXTURE
    frac = Matrix.from_rows([[Fraction(1, 3), 2], [3, Fraction(-7, 5)]])
    assert Matrix.from_doc(frac.to_doc()) == frac
    with pytest.raises(ShapeError):
        Matrix.from_doc({"rows": 2, "cols": 2, "entries": ["1", "2", "3"]})
