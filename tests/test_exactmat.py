import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    EDGE_MATRICES,
    antidiagonal_transpose,
    bar,
    fraction_gen_k_positive_not_higher,
    fraction_gen_totally_positive,
    fraction_repeat_submatrix,
    fraction_restrict,
    from_rows,
    grid,
    identity_matrix,
    random_rational_matrix,
    square_matrices,
    zero_matrix,
)
import fixtures
from klimm import exactmat
from klimm.errors import ShapeError
from klimm.exactmat import (
    Matrix,
    deleted_det,
    det,
    gen_k_positive_not_higher,
    gen_totally_positive,
    is_k_positive,
    lewis_carroll_residual,
    minor,
    positivity_order,
    repeat_submatrix,
    restrict,
)
from klimm.grid import Grid, graph_of_upper_interval
from klimm.immanant import imm_definition
from klimm.perm import symmetric_group

FIXTURE = fixtures.TWO_POSITIVE_NOT_THREE

def small_nonnegative_matrices(n):
    return st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(from_rows)


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
    assert det(identity_matrix(5)) == 1
    assert det(from_rows([[1, 2], [1, 2]])) == 0
    assert det(Matrix(())) == 1  # empty determinant
    assert minor(FIXTURE, [1, 2, 3], [1, 2, 3]) == -2
    with pytest.raises(ShapeError):
        det(zero_matrix(2, 3))


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
    assert restrict(FIXTURE, grid(4, [])) == zero_matrix(4, 4)
    with pytest.raises(ShapeError):
        restrict(FIXTURE, grid(3, []))


def _special_grids(n):
    """The empty grid, the full grid and the antidiagonal of [n]^2."""
    full = (1 << n + 1) - 2
    return [Grid(n, (0,) * n), Grid(n, (full,) * n),
            Grid(n, tuple(1 << n - i for i in range(n)))]


@st.composite
def matrices_and_grids(draw):
    n = draw(st.integers(1, 6))
    rows = st.integers(0, (1 << n) - 1).map(lambda mask: mask << 1)
    P = draw(st.one_of(st.sampled_from(_special_grids(n)),
                       st.tuples(*[rows] * n).map(lambda r: Grid(n, r))))
    return draw(square_matrices(n)), P


@given(matrices_and_grids())
@settings(max_examples=100, deadline=None)
def test_restricted_det_matches_det_of_restrict(M_P):
    M, P = M_P
    assert exactmat._restricted_det(M, P) == det(restrict(M, P))


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_restricted_det_on_edge_matrices(name):
    M = EDGE_MATRICES[name]
    n = M.rows
    for P in _special_grids(n) + [graph_of_upper_interval(v)
                                  for v in symmetric_group(n)]:
        assert exactmat._restricted_det(M, P) == det(restrict(M, P))


def test_restricted_det_at_size_0_and_of_the_wrong_size():
    assert exactmat._restricted_det(Matrix(()), Grid(0, ())) == 1
    with pytest.raises(ShapeError, match="grid size 3 does not match"):
        exactmat._restricted_det(FIXTURE, grid(3, []))



def _lcm_scaled(M: Matrix):
    """Each row times the lcm of its denominators, and those multipliers."""
    denoms = tuple(functools.reduce(math.lcm, (x.denominator for x in row), 1)
                   for row in M.entries)
    return tuple(tuple(x * d for x in row)
                 for row, d in zip(M.entries, denoms)), denoms


@pytest.mark.parametrize("name", ["0x0"] + sorted(EDGE_MATRICES))
def test_cleared_form_scales_each_row_by_the_lcm_of_its_denominators(name):
    M = Matrix(()) if name == "0x0" else EDGE_MATRICES[name]
    rows, denoms = M.cleared
    assert (rows, denoms) == _lcm_scaled(M)
    assert all(type(x) is int for row in rows for x in row)
    assert M.cleared is M.cleared


def test_cleared_form_is_left_alone_by_every_reader():
    # Bareiss eliminates in place, so det must run on a copy of the rows.
    rng = random.Random(26)
    for M in [*EDGE_MATRICES.values(), random_rational_matrix(4, rng)]:
        v = tuple(range(1, M.rows + 1))
        det(M)
        exactmat._restricted_det(M, graph_of_upper_interval(v))
        positivity_order(M)
        imm_definition(v, M)
        assert M.cleared == _lcm_scaled(M)
        assert det(M) == _cofactor_det(M)


def _from_its_cleared_rows(M: Matrix, factor: int = 1) -> Matrix:
    rows, denoms = M.cleared
    return Matrix.from_cleared([[x * factor for x in row] for row in rows],
                               [d * factor for d in denoms])


@pytest.mark.parametrize("name", ["0x0"] + sorted(EDGE_MATRICES))
@pytest.mark.parametrize("factor", [1, 6])
def test_both_constructors_give_one_matrix(name, factor):
    M = Matrix(()) if name == "0x0" else EDGE_MATRICES[name]
    N = _from_its_cleared_rows(M, factor)
    assert (N.rows, N.cols) == (M.rows, M.cols)
    assert "entries" not in vars(N)  # rows and cols read the cleared rows
    assert N == M and hash(N) == hash(M) and N.cleared == M.cleared
    assert repr(N) == repr(M) and N.entries == M.entries


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.integers(1, 60), min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_from_cleared_divides_each_row_by_its_multiplier(rows_and_multipliers):
    rows, multipliers = rows_and_multipliers
    M = Matrix.from_cleared(rows, multipliers)
    expected = Matrix(tuple(tuple(Fraction(x, d) for x in row)
                            for row, d in zip(rows, multipliers)))
    assert M == expected and hash(M) == hash(expected)
    assert M.cleared == expected.cleared == _lcm_scaled(expected)


def test_matrix_is_frozen():
    M = _from_its_cleared_rows(EDGE_MATRICES["zero-row"])
    for name in ("cleared", "entries", "rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(M, name, None)
    assert M == EDGE_MATRICES["zero-row"]


RAGGED = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4), Fraction(5)))


@pytest.mark.parametrize("build", [
    lambda: Matrix(RAGGED),
    lambda: Matrix.from_cleared([[1, 2], [3, 4, 5]], [1, 1]),
    lambda: Matrix.from_cleared([[1, 2], [3, 4]], [1]),
], ids=["entries", "cleared", "multipliers"])
def test_ragged_rows_are_rejected(build):
    # A shape read off row 0 alone would pass this as 2 x 2 and give it
    # det 5, positivity order 1 and an immanant of -2.
    with pytest.raises(ShapeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Matrix(((1, 0.5), (0, 1))),
    lambda: Matrix(((True, 0), (0, 1))),
    lambda: Matrix((("1", 0), (0, 1))),
    lambda: Matrix.from_cleared([[1, Fraction(1, 2)], [0, 1]], [1, 1]),
    lambda: Matrix.from_cleared([[1, True], [0, 1]], [1, 1]),
    lambda: Matrix.from_cleared([[1, 2.0], [0, 1]], [1, 1]),
], ids=["float", "bool", "str", "cleared-fraction", "cleared-bool",
        "cleared-float"])
def test_entries_that_are_not_ints_or_fractions_are_rejected(build):
    with pytest.raises(ValueError, match="ints"):
        build()


@pytest.mark.parametrize("multiplier", [0, -2, True, 2.0, Fraction(2)])
def test_multipliers_that_are_not_positive_ints_are_rejected(multiplier):
    with pytest.raises(ValueError, match="positive ints"):
        Matrix.from_cleared([[1, 2], [3, 4]], [1, multiplier])


def test_repeat_submatrix_examples():
    m = FIXTURE.rows
    assert repeat_submatrix(FIXTURE, range(1, m + 1), range(1, m + 1)) == FIXTURE
    assert repeat_submatrix(FIXTURE, (1, 1, 3), (2, 3, 4)) == \
        fixtures.REPEATED_113_234
    with pytest.raises(IndexError):
        repeat_submatrix(FIXTURE, (1, 2, 5), (1, 2, 3))


@pytest.mark.parametrize("function,args,error,message", [
    (minor, (FIXTURE, [5], [1]), IndexError,
     r"row selection \[5\] out of range"),
    (minor, (FIXTURE, [1], [5]), IndexError,
     r"column selection \[5\] out of range"),
    (repeat_submatrix, (FIXTURE, (1, 2), (1,)), ShapeError,
     "row and column label multisets must have equal size"),
    (repeat_submatrix, (FIXTURE, (1, 2), (1, 5)), IndexError,
     r"column labels \(1, 5\) out of range \[1, 4\]"),
    (gen_totally_positive, (0, 0), ValueError, "n must be at least 1"),
    (gen_k_positive_not_higher, (3, 3, 0), ValueError,
     "need 1 <= k < n, got k=3, n=3"),
    (gen_k_positive_not_higher, (3, 4, 0), ValueError,
     "need 1 <= k < n, got k=4, n=3"),
], ids=["minor-row", "minor-column", "repeat-lengths", "repeat-column",
        "totally-positive-0", "k-equals-n", "k-above-n"])
def test_out_of_range_arguments_are_rejected(function, args, error, message):
    with pytest.raises(error, match=message):
        function(*args)


@pytest.mark.parametrize("function,rows,cols", [
    (minor, [True], [1]),
    (minor, [1.0], [1]),
    (minor, [1], [2, 1.0]),
    (deleted_det, [1.0], [1]),
    (deleted_det, [1], [True]),
], ids=["minor-bool-row", "minor-float-row", "minor-float-column",
        "deleted-float-row", "deleted-bool-column"])
def test_indices_that_are_not_ints_are_rejected(function, rows, cols):
    # True and 1.0 equal the index 1, so a set or range test alone reads
    # them as row 1 (minor(FIXTURE, [True], [1]) was 22 and
    # deleted_det(FIXTURE, [1.0], [1]) was -6) or fails with a bare
    # TypeError when it indexes a row.  They are refused by type, as
    # grid.as_multiset refuses labels.
    with pytest.raises(ValueError, match="are not all ints"):
        function(FIXTURE, rows, cols)


def test_k_positivity_of_fixture():
    assert is_k_positive(FIXTURE, 2)
    assert not is_k_positive(FIXTURE, 3)
    assert positivity_order(FIXTURE) == 2
    assert positivity_order(FIXTURE, 1) == 1
    assert not is_k_positive(from_rows([[1, -1], [1, 1]]), 1)
    assert positivity_order(identity_matrix(3)) == 0
    assert positivity_order(Matrix(())) == 0
    with pytest.raises(ValueError):
        is_k_positive(FIXTURE, 5)
    with pytest.raises(ValueError):
        is_k_positive(FIXTURE, 0)
    with pytest.raises(ValueError):
        positivity_order(FIXTURE, 5)
    with pytest.raises(ValueError):
        positivity_order(FIXTURE, -1)
    with pytest.raises(ShapeError):
        positivity_order(zero_matrix(2, 3))
    with pytest.raises(ShapeError):
        is_k_positive(zero_matrix(3, 2), 1)


def _order_by_enumeration(M: Matrix) -> int:
    # Oracle: every minor of every size, not only the solid ones.
    n = M.rows
    for s in range(1, n + 1):
        sets = list(itertools.combinations(range(1, n + 1), s))
        if any(minor(M, rows, cols) <= 0 for rows in sets for cols in sets):
            return s - 1
    return n


@st.composite
def perturbed_totally_positive(draw):
    # A totally positive matrix whose corner entry is moved to near the
    # value that zeroes one of its leading minors, so that every order
    # from 0 to n turns up.
    n = draw(st.integers(2, 5))
    base = gen_totally_positive(n, seed=draw(st.integers(0, 50)))
    lead = range(1, draw(st.integers(2, n)) + 1)
    crossing = minor(base, lead, lead) / minor(base, lead[1:], lead[1:])
    rows = [list(row) for row in base.entries]
    rows[0][0] -= crossing * Fraction(draw(st.integers(90, 110)), 100)
    return from_rows(rows)


@given(st.one_of(st.integers(0, 5).flatmap(square_matrices),
                 st.integers(1, 5).flatmap(small_nonnegative_matrices),
                 perturbed_totally_positive()))
@settings(max_examples=300, deadline=None)
def test_positivity_order_matches_minor_enumeration(M):
    n = M.rows
    order = _order_by_enumeration(M)
    for upto in range(n + 1):
        assert positivity_order(M, upto) == min(order, upto)
    # k-positivity is monotone in k: true up to the order, false beyond.
    assert [is_k_positive(M, k) for k in range(1, n + 1)] == \
        [k <= order for k in range(1, n + 1)]


def test_condensation_rejects_an_inexact_division():
    assert exactmat._exact_quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        exactmat._exact_quotient(7, 2)


def _matmul(A: Matrix, B: Matrix) -> Matrix:
    cols = tuple(zip(*B.entries))
    return Matrix(tuple(tuple(sum(a * b for a, b in zip(row, col))
                              for col in cols) for row in A.entries))


def _tp_by_elementary_product(n: int, seed) -> Matrix:
    # The generator's factorization as full matrix products, with the
    # same parameter draws in the same order (test oracle).
    rng = random.Random(f"tp:{n}:{seed}")

    def parameter() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))

    def elementary(i: int, lower: bool) -> Matrix:
        rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        if lower:
            rows[i][i - 1] = parameter()
        else:
            rows[i - 1][i] = parameter()
        return from_rows(rows)

    word = exactmat._longest_word(n)
    M = from_rows([[parameter() if i == j else 0 for j in range(n)]
                          for i in range(n)])
    for i in word:
        M = _matmul(elementary(i, lower=True), M)
    for i in reversed(word):
        M = _matmul(M, elementary(i, lower=False))
    return M


# Plain int seeds, and string seeds of the forms the suites pass.
generator_seeds = st.one_of(
    st.integers(0, 2**64),
    st.builds("{}:5.{}:{}:k{}".format, st.integers(0, 9), st.integers(1, 3),
              st.integers(0, 999), st.integers(0, 9)),
    st.builds("{}:young:{}:{}:tp{}".format, st.integers(0, 9),
              st.sampled_from(["2,1,0,0", "3,3,1", "0,0,0,0"]),
              st.sampled_from("dc"), st.integers(0, 9)))


def _assert_same_matrix(M: Matrix, reference: Matrix) -> None:
    assert M == reference and hash(M) == hash(reference)
    assert M.cleared == reference.cleared
    assert M.to_doc() == reference.to_doc()


@pytest.mark.parametrize("n", range(1, 8))
@given(seed=generator_seeds)
@settings(max_examples=8, deadline=None)
@example(seed=0)
@example(seed=1)
@example(seed=17)
@example(seed="0:young:2,1,0,0:c:tp3")
def test_totally_positive_matches_the_elementary_product(n, seed):
    _assert_same_matrix(gen_totally_positive(n, seed),
                        _tp_by_elementary_product(n, seed))


# Multiplying the two row multipliers in each row step, instead of taking
# their lcm, compounds along the word: at n = 20 the multipliers reach
# about a million bits and one draw takes seconds, past the deadline.
@given(seed=generator_seeds)
@settings(max_examples=3, deadline=1000)
@example(seed=0)
def test_totally_positive_matches_its_reference_at_large_n(seed):
    _assert_same_matrix(gen_totally_positive(20, seed),
                        fraction_gen_totally_positive(20, seed))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8)
                                 for k in range(1, n)])
@given(seed=generator_seeds)
@settings(max_examples=8, deadline=None)
@example(seed=11)
@example(seed="0:5.1:7:k0")
def test_k_positive_sampler_matches_its_reference(n, k, seed):
    _assert_same_matrix(gen_k_positive_not_higher(n, k, seed),
                        fraction_gen_k_positive_not_higher(n, k, seed))


@given(matrices_and_grids())
@settings(max_examples=50, deadline=None)
def test_restrict_matches_its_reference(M_P):
    _assert_same_matrix(restrict(*M_P), fraction_restrict(*M_P))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_repeat_submatrix_matches_its_reference(data):
    M = data.draw(st.integers(1, 6).flatmap(square_matrices)
                  | st.sampled_from(list(EDGE_MATRICES.values())))
    n = M.rows
    size = data.draw(st.integers(0, n + 2))
    R, C = (sorted(data.draw(st.lists(st.integers(1, n), min_size=size,
                                      max_size=size))) for _ in "RC")
    _assert_same_matrix(repeat_submatrix(M, R, C),
                        fraction_repeat_submatrix(M, R, C))


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_totally_positive(n):
    M = gen_totally_positive(n, seed=17)
    assert positivity_order(M) == n


@pytest.mark.parametrize("n", [7, 8])
def test_generated_totally_positive_is_verified_at_every_size(n, monkeypatch):
    assert positivity_order(gen_totally_positive(n, seed=17)) == n
    monkeypatch.setattr(exactmat, "positivity_order", lambda M, upto=None: 0)
    with pytest.raises(ArithmeticError):
        gen_totally_positive(n, seed=17)


def test_generators_are_deterministic():
    assert gen_totally_positive(4, seed=5) == gen_totally_positive(4, seed=5)
    assert gen_totally_positive(4, seed=5) != gen_totally_positive(4, seed=6)
    for n, k in [(2, 1), (4, 2), (7, 3)]:
        for seed in (1, "0:5.1:7:k0"):
            assert gen_k_positive_not_higher(n, k, seed) == \
                gen_k_positive_not_higher(n, k, seed)
        assert gen_k_positive_not_higher(n, k, 1) != \
            gen_k_positive_not_higher(n, k, 2)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8)
                                 for k in range(1, n)])
def test_strictly_k_positive_sampling(n, k):
    M = gen_k_positive_not_higher(n, k, seed=11)
    assert is_k_positive(M, k)
    assert not is_k_positive(M, k + 1)
    assert positivity_order(M) == k
    if n <= 5:
        assert _order_by_enumeration(M) == k


def _lowered_corner(M: Matrix, k: int) -> str | None:
    # Only the solid minors through the lowered corner change, so for
    # k + 1 < n exactly one of these two (k + 1)-minors is nonpositive.
    n = M.rows
    if k + 1 == n:
        return None
    head, tail = range(1, k + 2), range(n - k, n + 1)
    leading, trailing = minor(M, head, head) <= 0, minor(M, tail, tail) <= 0
    assert leading != trailing
    return "(1,1)" if leading else "(n,n)"


@given(st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_constructed_order_is_exactly_k(n_k, seed):
    n, k = n_k
    M = gen_k_positive_not_higher(n, k, seed)
    assert positivity_order(M) == k
    event(f"corner {_lowered_corner(M, k)}")


def test_constructor_lowers_both_corners():
    assert {_lowered_corner(gen_k_positive_not_higher(5, k, seed), k)
            for k in (1, 2, 3) for seed in range(8)} == {"(1,1)", "(n,n)"}


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (7, 6)])
def test_constructed_matrix_is_verified(n, k, monkeypatch):
    # A check that always reads order n lets every totally positive base
    # through but must stop every constructed matrix.
    monkeypatch.setattr(exactmat, "positivity_order",
                        lambda M, upto=None: M.rows)
    with pytest.raises(ArithmeticError):
        gen_k_positive_not_higher(n, k, seed=3)


def test_lewis_carroll_small_and_fixture():
    two = from_rows([[3, 5], [7, 11]])
    assert lewis_carroll_residual(two, 1, 2, 1, 2) == 0
    assert lewis_carroll_residual(FIXTURE, 1, 2, 1, 2) == 0
    with pytest.raises(IndexError):
        lewis_carroll_residual(FIXTURE, 2, 1, 1, 2)
    with pytest.raises(ShapeError):
        lewis_carroll_residual(from_rows([[1]]), 1, 1, 1, 1)


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
    assert flipped.entries[0][0] == FIXTURE.entries[3][3]
    assert flipped.entries[0][3] == FIXTURE.entries[0][3]
    assert antidiagonal_transpose(flipped) == FIXTURE
    assert det(flipped) == det(FIXTURE)
    assert positivity_order(flipped) == positivity_order(FIXTURE)


@given(square_matrices(4))
@settings(max_examples=30, deadline=None)
def test_antidiagonal_transpose_preserves_det(M):
    assert det(antidiagonal_transpose(M)) == det(M)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_antidiagonal_transpose_preserves_positivity(n):
    M = gen_totally_positive(n, seed=23)
    assert positivity_order(antidiagonal_transpose(M)) == n


def test_bar():
    assert bar((2, 3, 4), 4) == (1, 2, 3)
    assert bar(bar((1, 1, 3), 4), 4) == (1, 1, 3)
    with pytest.raises(ValueError):
        bar((0, 1), 3)


def test_deleted_det_and_submatrix():
    assert deleted_det(FIXTURE, {1}, {1}) == minor(FIXTURE, [2, 3, 4], [2, 3, 4])
    assert deleted_det(FIXTURE, {1, 2, 3, 4}, {1, 2, 3, 4}) == 1
    assert (repeat_submatrix(FIXTURE, [1, 2], [3, 4]).entries
            == ((6, 3), (3, 2)))
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
    # Rectangular matrices, selections of every size down to the empty one
    # (value 1), and indices repeated or out of order, which are read as
    # sets.
    for r, c in [(3, 5), (5, 3)] * 4:
        M = from_rows([[Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                        for _ in range(c)] for _ in range(r)])
        k = rng.randint(0, 3)
        rows = tuple(sorted(rng.sample(range(1, r + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, c + 1), k)))
        expected = det(repeat_submatrix(M, rows, cols))
        assert minor(M, rows, cols) == expected
        assert minor(M, rows[::-1] + rows, cols + cols[:1]) == expected
    assert minor(M, [], []) == minor(Matrix(()), [], []) == 1


def test_matrix_doc_round_trip():
    doc = FIXTURE.to_doc()
    assert Matrix.from_doc(doc) == FIXTURE
    frac = from_rows([[Fraction(1, 3), 2], [3, Fraction(-7, 5)]])
    assert Matrix.from_doc(frac.to_doc()) == frac
    with pytest.raises(ShapeError):
        Matrix.from_doc({"rows": 2, "cols": 2, "entries": ["1", "2", "3"]})
