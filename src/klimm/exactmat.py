"""
Exact rational matrices and the minor machinery built on them.

Entries are :class:`fractions.Fraction`, so every sign decision in the
positivity tests is exact.  Determinants go through fraction-free
Bareiss elimination on integers after clearing denominators, which keeps
intermediate growth polynomial.  k-positivity needs only the solid minors
(Fekete's criterion), which Dodgson condensation builds from Lewis
Carroll's identity.  The 0 x 0 determinant is 1; the
two-rows-two-columns-removed form of Lewis Carroll's identity at n = 2
needs exactly that convention.

Generators take explicit seeds and are deterministic given their
arguments.  Total positivity is produced constructively from a product
of elementary lower bidiagonal factors, a positive diagonal, and
elementary upper bidiagonal factors along reduced words of the longest
permutation, each applied as one row or column operation.  A matrix that
is k-positive but not (k+1)-positive is built in one step by lowering a
corner of a totally positive one.  Every generated matrix is verified.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import ShapeError
from .grid import Grid


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions; entry access is 1-indexed."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Each row times the lcm of its denominators, and those multipliers."""
        denoms = tuple(lcm(*(x.denominator for x in r)) for r in self.entries)
        return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                     for row, d in zip(self.entries, denoms)), denoms

    def to_doc(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [str(x) for row in self.entries for x in row]}

    @classmethod
    def from_doc(cls, doc: dict) -> "Matrix":
        """Read a :meth:`to_doc` document back; ValueError if malformed."""
        doc = doc if isinstance(doc, dict) else {}
        r, c, entries = doc.get("rows"), doc.get("cols"), doc.get("entries")
        if not (type(r) is type(c) is int and r >= 0 and c >= 0
                and (r > 0 or c == 0) and isinstance(entries, list)):
            raise ValueError("not a matrix document: need an object with "
                             "integers rows, cols >= 0 (cols 0 if rows is "
                             "0) and a list of entries")
        if len(entries) != r * c:
            raise ShapeError(f"expected {r * c} entries, got {len(entries)}")
        try:
            flat = [Fraction(str(x)) for x in entries]
        except ZeroDivisionError as exc:
            raise ValueError(f"matrix entry with zero denominator: {exc}")
        return cls(tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r)))


def _require_square(M: Matrix, n: int | None = None) -> int:
    size = M.rows
    if size != M.cols or n not in (None, size):
        expected = "not square" if n is None else f"expected {n}x{n}"
        raise ShapeError(f"matrix is {size}x{M.cols}, {expected}")
    return size


def _bareiss_int_det(rows: list[list[int]]) -> int:
    # Fraction-free elimination: every division below is exact by
    # Sylvester's identity, so all intermediates stay integers.
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            row_i = rows[i]
            row_k = rows[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * rows[-1][-1] if rows else 1


def det(M: Matrix) -> Fraction:
    """
    Exact determinant (empty matrix has determinant 1).

    >>> det(Matrix.from_doc({"rows": 3, "cols": 3,
    ...                      "entries": [22, 18, 6, 8, 7, 3, 2, 2, 1]}))
    Fraction(-2, 1)
    """
    _require_square(M)
    int_rows, denoms = M.cleared
    return Fraction(_bareiss_int_det(list(map(list, int_rows))), prod(denoms))


def minor(M: Matrix, rows: Iterable[int], cols: Iterable[int]) -> Fraction:
    """Determinant on the given row and column sets, read off M.cleared."""
    row_idx = sorted(set(rows))
    col_idx = sorted(set(cols))
    if len(row_idx) != len(col_idx):
        raise ShapeError(
            f"minor needs equally many rows and columns, got "
            f"{len(row_idx)} and {len(col_idx)}")
    if any(not 1 <= i <= M.rows for i in row_idx):
        raise IndexError(f"row selection {row_idx} out of range")
    if any(not 1 <= j <= M.cols for j in col_idx):
        raise IndexError(f"column selection {col_idx} out of range")
    int_rows, denoms = M.cleared
    return Fraction(_bareiss_int_det(
        [[int_rows[i - 1][j - 1] for j in col_idx] for i in row_idx]),
        prod(denoms[i - 1] for i in row_idx))


def deleted_det(M: Matrix, gone_rows: Iterable[int],
                gone_cols: Iterable[int]) -> Fraction:
    """Determinant after removing the named rows and columns."""
    every = set(range(1, _require_square(M) + 1))
    return minor(M, every - set(gone_rows), every - set(gone_cols))


def restrict(M: Matrix, P: Grid) -> Matrix:
    """Zero out every entry outside the grid."""
    n = _require_square(M)
    if P.n != n:
        raise ShapeError(f"grid size {P.n} does not match matrix size {n}")
    zero = Fraction(0)
    return Matrix(tuple(
        tuple(M.entries[i - 1][j - 1] if P.has_cell(i, j) else zero
              for j in range(1, n + 1))
        for i in range(1, n + 1)))


def _restricted_det(M: Matrix, P: Grid) -> Fraction:
    """det(restrict(M, P)), zeroing the cells outside P on M's integer rows."""
    n = _require_square(M)
    if P.n != n:
        raise ShapeError(f"grid size {P.n} does not match matrix size {n}")
    int_rows, denoms = M.cleared
    return Fraction(_bareiss_int_det(
        [[x if mask >> j & 1 else 0 for j, x in enumerate(row, 1)]
         for row, mask in zip(int_rows, P.rows)]), prod(denoms))


def repeat_submatrix(M: Matrix, R: Sequence[int], C: Sequence[int]) -> Matrix:
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


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def positivity_order(M: Matrix, upto: int | None = None) -> int:
    """
    The largest s <= upto (default n) such that every minor of size at
    most s is positive.  By Fekete's criterion only the solid minors
    (contiguous rows and columns) count; they are built size by size in
    integers by Dodgson condensation, after scaling each row by the lcm of
    its denominators, which keeps the sign of every minor.

    >>> positivity_order(Matrix.from_doc(
    ...     {"rows": 3, "cols": 3, "entries": [3, 2, 1, 2, 2, 2, 1, 2, 3]}))
    2
    """
    n = _require_square(M)
    upto = n if upto is None else upto
    if not 0 <= upto <= n:
        raise ValueError(f"upto must lie in [0, {n}], got {upto}")
    lower = [[1] * (n + 1) for _ in range(n + 1)]  # the size-0 minors
    level = M.cleared[0]
    for s in range(1, upto + 1):
        if s > 1:
            # Lewis Carroll's identity; each divisor is a solid minor of
            # size s - 2, already shown positive.
            lower, level = level, [
                [_exact_quotient(level[i][j] * level[i + 1][j + 1]
                                 - level[i][j + 1] * level[i + 1][j],
                                 lower[i + 1][j + 1])
                 for j in range(n - s + 1)]
                for i in range(n - s + 1)]
        if min(map(min, level)) <= 0:
            return s - 1
    return upto


def is_k_positive(M: Matrix, k: int) -> bool:
    """
    Are all minors of size at most k positive?  Only the solid ones are
    checked (Fekete's criterion), by condensation: see positivity_order.
    """
    n = _require_square(M)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    return positivity_order(M, k) == k


def _longest_word(n: int) -> list[int]:
    # The reduced word (1)(2 1)(3 2 1)...(n-1 ... 1) for the longest
    # permutation; any reduced word yields total positivity.
    return [i for k in range(1, n) for i in range(k, 0, -1)]


def gen_totally_positive(n: int, seed: int) -> Matrix:
    """
    A totally positive n x n matrix with positive rational parameters
    drawn from a seeded generator, verified exactly before being returned.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(f"tp:{n}:{seed}")

    def parameter() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))

    rows = [[parameter() if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    # Each elementary factor as one row (left) or column (right) operation.
    for i in _longest_word(n):
        t = parameter()
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[i - 1])]
    for i in reversed(_longest_word(n)):
        t = parameter()
        for row in rows:
            row[i] += t * row[i - 1]
    M = Matrix(tuple(map(tuple, rows)))
    if positivity_order(M) != n:
        raise ArithmeticError("generated matrix failed total positivity check")
    return M


def gen_k_positive_not_higher(n: int, k: int, seed: int) -> Matrix:
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


def lewis_carroll_residual(M: Matrix, a: int, a2: int,
                           b: int, b2: int) -> Fraction:
    """
    det(M) det(M with rows a,a' and columns b,b' removed) minus
    [det(M_a^b) det(M_a'^b') - det(M_a^b') det(M_a'^b)]; identically zero
    for every square matrix.
    """
    n = _require_square(M)
    if n < 2:
        raise ShapeError("matrix must be at least 2x2")
    if not (1 <= a < a2 <= n and 1 <= b < b2 <= n):
        raise IndexError(f"need 1 <= a < a' <= {n} and 1 <= b < b' <= {n}")
    left = det(M) * deleted_det(M, {a, a2}, {b, b2})
    right = (deleted_det(M, {a}, {b}) * deleted_det(M, {a2}, {b2})
             - deleted_det(M, {a}, {b2}) * deleted_det(M, {a2}, {b}))
    return left - right


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
