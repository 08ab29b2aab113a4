import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from klimm.exactmat import Matrix
from klimm.klpoly import KLCache, kl_polynomial
from klimm.suites import _partitions_in_box

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def square_matrices(n):
    """Hypothesis strategy for n x n matrices of small rationals."""
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.from_rows)


def identity_matrix(n: int) -> Matrix:
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


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


def random_rational_matrix(n: int, rng: random.Random,
                           span: int = 999, den: int = 50) -> Matrix:
    return Matrix.from_rows(
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
