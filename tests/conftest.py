import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from kl_every_candidate import kl_at_every_candidate
from klimm.errors import ShapeError
from klimm.exactmat import (
    Matrix,
    _longest_word,
    _require_square,
    gen_totally_positive,
    minor,
    positivity_order,
)
from klimm.grid import Grid
from klimm.klpoly import ONE, IntPolynomial, KLCache, kl_at, kl_polynomial
from klimm.perm import iter_bits
from klimm.suites import _partitions_in_box

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def from_rows(rows) -> Matrix:
    """A Matrix of Fractions from rows of numbers (ints, Fractions)."""
    return Matrix(rows)


def square_matrices(n):
    """Hypothesis strategy for n x n matrices of small rationals."""
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(from_rows)


def identity_matrix(n: int) -> Matrix:
    return from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(tuple((Fraction(0),) * cols for _ in range(rows)))


def bar(J, m: int) -> tuple[int, ...]:
    """
    The label multiset reflected inside [m]: each j becomes m + 1 - j,
    re-sorted increasingly.  This is how row/column labels transform
    under antidiagonal transposition.
    """
    if any(not 1 <= j <= m for j in J):
        raise ValueError(f"labels {tuple(J)} not all in [1, {m}]")
    return tuple(sorted(m + 1 - j for j in J))


def young_shapes(P, build) -> list[tuple[int, ...]]:
    """The partitions whose grid, made by ``build``, has the cells of P."""
    return [parts for parts in _partitions_in_box(P.n)
            if build(parts, P.n).rows == P.rows]


def durfee(parts) -> int:
    """
    Side of the Durfee square, the largest square inside the Young
    diagram of ``parts`` (test oracle for ``largest_square``).
    """
    best = 0
    for s, part in enumerate(parts, start=1):
        if part >= s:
            best = s
    return best


def grid(n, cells) -> Grid:
    """Build a Grid from its cells."""
    rows = [0] * n
    for (i, j) in cells:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"cell {(i, j)} outside [{n}]^2")
        rows[i - 1] |= 1 << j
    return Grid(n, tuple(rows))


def cells_of(P) -> frozenset:
    """The cells (i, j) of a Grid, read off its row masks."""
    return frozenset((i, j) for i, mask in enumerate(P.rows, start=1)
                     for j in iter_bits(mask))


def non_inversions(v) -> list[tuple[int, int]]:
    """
    All pairs <i, j> with i < j and v_i < v_j, in lexicographic order
    (test oracle for the gap bound of ``squares_match_noninversions``).
    """
    n = len(v)
    return [(i + 1, j + 1)
            for i in range(n) for j in range(i + 1, n) if v[i] < v[j]]


def permutation_graph(v) -> frozenset:
    """The graph of v as a function: {(i, v_i)}."""
    return frozenset((i, x) for i, x in enumerate(v, start=1))


def row_support(P, r: int) -> frozenset:
    """Columns c with (r, c) in P."""
    if not 1 <= r <= P.n:
        raise IndexError(f"row {r} out of range for size {P.n}")
    return frozenset(iter_bits(P.rows[r - 1]))


def col_support(P, c: int) -> frozenset:
    """Rows r with (r, c) in P."""
    if not 1 <= c <= P.n:
        raise IndexError(f"column {c} out of range for size {P.n}")
    return frozenset(r for r in range(1, P.n + 1) if P.has_cell(r, c))


def cells_sandwiched_only_by(v, i: int) -> frozenset:
    """
    Cells outside the graph of v whose every sandwiching non-inversion
    involves position i.  These are exactly the cells that disappear from
    the upper-interval graph when v_i is deleted from the word.
    """
    n = len(v)
    nis = non_inversions(v)
    out = set()
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            witnesses = [(k, l) for (k, l) in nis
                         if k <= r <= l and v[k - 1] <= c <= v[l - 1]]
            if (c != v[r - 1] and witnesses
                    and all(i in (k, l) for (k, l) in witnesses)):
                out.add((r, c))
    return frozenset(out)


def random_rational_matrix(n: int, rng: random.Random,
                           span: int = 999, den: int = 50) -> Matrix:
    return from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, den))
          for _ in range(n)] for _ in range(n)])


def antidiagonal_transpose(M: Matrix) -> Matrix:
    """
    Reflect across the antidiagonal (conjugate the transpose by the
    reversal permutation matrix).  Preserves the determinant, every minor
    up to relabeling, and hence k-positivity for every k.
    """
    n = _require_square(M)
    return Matrix(tuple(
        tuple(M.entries[n - 1 - j][n - 1 - i] for j in range(n))
        for i in range(n)))


# The Fraction versions of four exactmat functions, each of which now
# works on cleared integer rows: the oracles those must equal.  Each
# builds every entry as a Fraction and clears the result again.


def fraction_gen_totally_positive(n: int, seed) -> Matrix:
    """
    gen_totally_positive with a Fraction per entry: the same parameter
    draws, each applied as one row or column operation.
    """
    rng = random.Random(f"tp:{n}:{seed}")

    def parameter() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))

    rows = [[parameter() if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    for i in _longest_word(n):
        t = parameter()
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[i - 1])]
    for i in reversed(_longest_word(n)):
        t = parameter()
        for row in rows:
            row[i] += t * row[i - 1]
    return Matrix(tuple(map(tuple, rows)))


def fraction_restrict(M: Matrix, P: Grid) -> Matrix:
    """Zero out every entry outside the grid."""
    n = _require_square(M)
    if P.n != n:
        raise ShapeError(f"grid size {P.n} does not match matrix size {n}")
    zero = Fraction(0)
    return Matrix(tuple(
        tuple(M.entries[i - 1][j - 1] if P.has_cell(i, j) else zero
              for j in range(1, n + 1))
        for i in range(1, n + 1)))


def fraction_repeat_submatrix(M: Matrix, R: Sequence[int],
                              C: Sequence[int]) -> Matrix:
    """
    The matrix whose (i, j) entry is M[r_i, c_j] for weakly increasing
    int label multisets R and C; repeated labels give repeated rows/columns.
    """
    if len(R) != len(C):
        raise ShapeError("row and column label multisets must have equal size")
    if not {*map(type, R), *map(type, C)} <= {int}:
        raise ValueError(f"labels {tuple(R)}, {tuple(C)} are not all ints")
    if any(not 1 <= r <= M.rows for r in R):
        raise IndexError(f"row labels {tuple(R)} out of range [1, {M.rows}]")
    if any(not 1 <= c <= M.cols for c in C):
        raise IndexError(f"column labels {tuple(C)} out of range [1, {M.cols}]")
    return Matrix(tuple(tuple(M.entries[r - 1][c - 1] for c in C) for r in R))


def fraction_gen_k_positive_not_higher(n: int, k: int, seed) -> Matrix:
    """
    Positivity order exactly k, in one step from a totally positive M.
    With r_s = det M[1..s] / det M[2..s] (leading solid minors), Lewis
    Carroll's identity gives r_1 > ... > r_n > 0.  Lowering m11 by delta
    makes det M[1..s] = det M[2..s] (r_s - delta) and keeps every other
    solid minor, so delta strictly between r_{k+1} and r_k gives order k
    (Fekete).  Corner (n, n), drawn as often, goes the same way through
    the antidiagonal transpose.  The result is verified exactly.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rng = random.Random(f"kpos:{n}:{k}:{seed}")
    M = gen_totally_positive(n, seed=rng.randint(0, 2**30))
    far_corner = rng.randrange(2)
    if far_corner:
        M = antidiagonal_transpose(M)
    high, low = (minor(M, range(1, s + 1), range(1, s + 1))  # r_k, r_{k+1}
                 / minor(M, range(2, s + 1), range(2, s + 1))
                 for s in (k, k + 1))
    rows = [list(row) for row in M.entries]
    rows[0][0] -= low + (high - low) * Fraction(rng.randint(1, 99), 100)
    C = Matrix(tuple(map(tuple, rows)))
    if far_corner:
        C = antidiagonal_transpose(C)
    if positivity_order(C) != k:
        raise ArithmeticError("constructed matrix has the wrong order")
    return C


# Matrices the Hypothesis strategy rarely draws.  In the large-denominator
# case every row has four distinct prime denominators near 10^4, so a sum
# divided by anything but the product of the row multipliers is wrong.
_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)
EDGE_MATRICES = {
    "zero-row": from_rows([[3, -1, Fraction(2, 7), 5], [0, 0, 0, 0],
                                  [1, 4, -2, Fraction(7, 3)], [6, 2, 9, -6]]),
    "large-coprime-denominators": from_rows(
        [[Fraction((-1) ** (i + j) * (97 * i + 31 * j + 1),
                   _PRIMES[(i + j) % len(_PRIMES)])
          for j in range(5)] for i in range(5)]),
    "integer": from_rows([[2, -3, 5, 1], [7, 0, -1, 4],
                                 [-2, 6, 3, 8], [1, 1, -5, 2]]),
    "1x1": from_rows([[Fraction(-7, 3)]]),
}


def kl_at_one(x, y, cache=None) -> int:
    """P_{x,y}(1), the multiplicity in the immanant sum (test oracle)."""
    return kl_polynomial(x, y, cache)(1)


def per_w_terms(v, oracle):
    """
    The signed terms as one per-pair oracle call per w = perms[k] >= v,
    in the order of ``above[v]``: the terms, KL counts and store that
    imm_terms's one read of the row of w0 v must match.
    """
    table = oracle.table
    iv, top = table.index[v], len(table.perms) - 1
    return [(k, (-1) ** (table.lengths[k] - table.lengths[iv])
             * kl_at_every_candidate(oracle, top - k, top - iv)(1))
            for k in iter_bits(table.above[iv])]


def store_holding(n: int, entries) -> KLCache:
    """
    A cache whose store holds the cold rows of the y that ``entries``,
    {(x, y): coefficients}, names, each x moved to the class of the
    coefficients given.  Load refuses a value that is not a KL
    polynomial, so this is how a test puts one where the row fill's
    checks, or load's after a save, must meet it.
    """
    cold, cache = KLCache(n), KLCache(n)
    index = cache.table.index
    for (x, y), coeffs in entries.items():
        x, y = index[x], index[y]
        kl_at(cold, 0, y)
        row = cache._rows.get(y) or cold._rows.get(y, {ONE: 1})
        row = {p: bits & ~(1 << x) for p, bits in row.items()}
        p = IntPolynomial(tuple(coeffs))
        row[p] = row.get(p, 0) | 1 << x
        cache._rows[y] = {p: bits for p, bits in row.items() if bits}
    return cache


@pytest.fixture(scope="session")
def kl_cache_s4() -> KLCache:
    return KLCache(4)


@pytest.fixture(scope="session")
def kl_cache_s5() -> KLCache:
    return KLCache(5)
