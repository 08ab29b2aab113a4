import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from klimm.errors import ShapeError
from klimm.exactmat import Matrix
from klimm.grid import Grid
from klimm.klpoly import KLCache, kl_polynomial
from klimm.perm import iter_bits, non_inversions
from klimm.suites import _partitions_in_box

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def from_rows(rows) -> Matrix:
    """A Matrix of Fractions from rows of numbers (ints, Fractions)."""
    data = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if data and any(len(row) != len(data[0]) for row in data):
        raise ShapeError("rows have unequal lengths")
    return Matrix(data)


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


def kl_at_one(x, y, cache=None) -> int:
    """P_{x,y}(1), the multiplicity in the immanant sum (test oracle)."""
    return kl_polynomial(x, y, cache)(1)


@pytest.fixture(scope="session")
def kl_cache_s4() -> KLCache:
    return KLCache(4)


@pytest.fixture(scope="session")
def kl_cache_s5() -> KLCache:
    return KLCache(5)
