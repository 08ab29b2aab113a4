"""
Exact rational matrices and the minor machinery built on them.

A matrix is its cleared integer rows: each row times the lcm of its
reduced denominators, and those multipliers.  Every constructor, every
transform and every reader works on those rows, so every sign decision
in the positivity tests is exact; :class:`fractions.Fraction` appears
only for the entries of a document and for determinant values.
Determinants go through fraction-free Bareiss elimination on those
integers, which keeps intermediate growth polynomial.  k-positivity
needs only the solid minors (Fekete's criterion), which Dodgson
condensation builds from Lewis Carroll's identity.  The 0 x 0
determinant is 1; the two-rows-two-columns-removed form of Lewis
Carroll's identity at n = 2 needs exactly that convention.

Generators take explicit seeds and are deterministic given their
arguments.  Total positivity is produced constructively from a product
of elementary lower bidiagonal factors, a positive diagonal, and
elementary upper bidiagonal factors along reduced words of the longest
permutation, each applied as one row or column operation on integer
rows.  A matrix that is k-positive but not (k+1)-positive is built in
one step by lowering a corner of a totally positive one.  Every
generated matrix is verified.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import ShapeError
from .grid import Grid, _index_set


def _rectangular(rows: Iterable[Iterable]) -> tuple[tuple, ...]:
    """The rows as tuples; ShapeError unless they all have one length."""
    rows = tuple(map(tuple, rows))
    if len(set(map(len, rows))) > 1:
        raise ShapeError(f"matrix rows have unequal lengths "
                         f"{[len(row) for row in rows]}")
    return rows


@dataclass(frozen=True, init=False, repr=False)
class Matrix:
    """
    Immutable dense rational matrix; entry access is 1-indexed.  Its state
    is ``cleared``: each row times the lcm of its reduced denominators,
    and those multipliers, so each row's multiplier is the least that
    makes it integral and ``==`` and ``hash`` compare that canonical form.
    ``Matrix(entries)`` takes rows of ints and Fractions, and keeps them
    as ``entries`` when they are all Fractions; for :meth:`from_cleared`,
    which takes integer rows and multipliers and builds every transform
    here, ``entries`` is built only when something reads it.
    """

    cleared: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]

    def __init__(self, entries: Iterable[Iterable[Fraction | int]]) -> None:
        rows = _rectangular(entries)
        # By type, not by value: True equals 1 and 0.5 is no Fraction.
        kinds = {type(x) for row in rows for x in row}
        if not kinds <= {int, Fraction}:
            raise ValueError("matrix entries must be ints or Fractions")
        denoms = tuple(lcm(*(x.denominator for x in row)) for row in rows)
        object.__setattr__(self, "cleared", (
            tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                  for row, d in zip(rows, denoms)), denoms))
        if int not in kinds:  # already the Fraction view
            self.__dict__["entries"] = rows

    @classmethod
    def from_cleared(cls, rows: Iterable[Iterable[int]],
                     multipliers: Iterable[int]) -> "Matrix":
        """
        The matrix whose row i is rows[i] / multipliers[i], each row
        divided by its gcd with its multiplier.

        >>> Matrix.from_cleared([[2, 4], [3, 0]], [6, 1]) == Matrix(
        ...     ((Fraction(1, 3), Fraction(2, 3)), (Fraction(3), Fraction(0))))
        True
        """
        rows, multipliers = _rectangular(rows), tuple(multipliers)
        if len(multipliers) != len(rows):
            raise ShapeError(f"{len(rows)} rows but {len(multipliers)} "
                             f"multipliers")
        if not {type(x) for row in rows for x in row} <= {int}:
            raise ValueError("cleared rows must hold ints only")
        if not all(type(d) is int and d > 0 for d in multipliers):
            raise ValueError(f"multipliers {multipliers} are not all "
                             f"positive ints")
        return cls._reduced(rows, multipliers)

    @classmethod
    def _reduced(cls, rows: tuple[tuple[int, ...], ...],
                 multipliers: tuple[int, ...]) -> "Matrix":
        """:meth:`from_cleared` on rows and multipliers that already pass
        its checks, as tuples: each row divided by its gcd with its
        multiplier."""
        gcds = [gcd(d, *row) for row, d in zip(rows, multipliers)]
        M = cls.__new__(cls)
        object.__setattr__(M, "cleared", (
            tuple(row if g == 1 else tuple(x // g for x in row)
                  for row, g in zip(rows, gcds)),
            tuple(d // g for d, g in zip(multipliers, gcds))))
        return M

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built from the cleared rows once."""
        rows, denoms = self.cleared
        return tuple(tuple(Fraction(x, d) for x in row)
                     for row, d in zip(rows, denoms))

    def __repr__(self) -> str:
        return f"Matrix(entries={self.entries!r})"

    @property
    def rows(self) -> int:
        return len(self.cleared[0])

    @property
    def cols(self) -> int:
        rows = self.cleared[0]
        return len(rows[0]) if rows else 0

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
    row_idx = sorted(_index_set(rows))
    col_idx = sorted(_index_set(cols))
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
    return minor(M, every - _index_set(gone_rows),
                 every - _index_set(gone_cols))


def _cut(M: Matrix, masks: Sequence[int]) -> list[list[int]]:
    """M's cleared rows, each zeroed outside its row mask (bit j keeps
    column j), unchecked: M is square of the size of ``masks``."""
    return [[x if mask >> j & 1 else 0 for j, x in enumerate(row, 1)]
            for row, mask in zip(M.cleared[0], masks)]


def _grid_masks(M: Matrix, P: Grid) -> tuple[int, ...]:
    """P's row masks; ShapeError unless M is square of P's size."""
    n = _require_square(M)
    if P.n != n:
        raise ShapeError(f"grid size {P.n} does not match matrix size {n}")
    return P.rows


def restrict(M: Matrix, P: Grid) -> Matrix:
    """Zero out every entry outside the grid."""
    return Matrix.from_cleared(_cut(M, _grid_masks(M, P)), M.cleared[1])


def _masked_det(M: Matrix, masks: Sequence[int]) -> Fraction:
    """det of M cut on the row masks (see :func:`_cut`), unchecked."""
    return Fraction(_bareiss_int_det(_cut(M, masks)), prod(M.cleared[1]))


def _restricted_det(M: Matrix, P: Grid) -> Fraction:
    """det(restrict(M, P)), eliminating on the cut integer rows."""
    return _masked_det(M, _grid_masks(M, P))


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
    int_rows, denoms = M.cleared
    return Matrix.from_cleared(
        [[int_rows[r - 1][c - 1] for c in C] for r in R],
        [denoms[r - 1] for r in R])


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

    def parameter() -> tuple[int, int]:  # the parameter a / b
        return rng.randint(1, 8), rng.randint(1, 8)

    # Row i is rows[i] / denoms[i], in integers throughout.
    rows, denoms = [[0] * n for _ in range(n)], [1] * n
    for i in range(n):
        rows[i][i], denoms[i] = parameter()
    # Each elementary factor as one row (left) or column (right) operation.
    # A row step takes the lcm of the two multipliers, not their product,
    # which would compound along the word and grow exponentially in n.
    for i in _longest_word(n):
        (a, b), d, e = parameter(), denoms[i], denoms[i - 1]
        m = lcm(d, b * e)
        u, v = m // d, a * (m // (b * e))
        rows[i] = [x * u + v * y for x, y in zip(rows[i], rows[i - 1])]
        denoms[i] = m
    for i in reversed(_longest_word(n)):
        a, b = parameter()
        for r, row in enumerate(rows):  # row keeps the unscaled entries
            rows[r] = [x * b for x in row]
            rows[r][i] += a * row[i - 1]
        denoms = [d * b for d in denoms]
    M = Matrix.from_cleared(rows, denoms)
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
    (Fekete).  Corner (n, n), drawn as often, is lowered in place by
    r_s = det M[n-s+1..n] / det M[n-s+1..n-1].  The result is verified.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rng = random.Random(f"kpos:{n}:{k}:{seed}")
    M = gen_totally_positive(n, seed=rng.randint(0, 2**30))
    corner = n - 1 if rng.randrange(2) else 0

    def ratio(s: int) -> Fraction:  # r_s at the corner
        solid = range(n - s + 1, n + 1) if corner else range(1, s + 1)
        inner = solid[:-1] if corner else solid[1:]
        return minor(M, solid, solid) / minor(M, inner, inner)

    high, low = ratio(k), ratio(k + 1)
    delta = low + (high - low) * Fraction(rng.randint(1, 99), 100)
    rows, denoms = map(list, M.cleared)
    row = [x * delta.denominator for x in rows[corner]]
    row[corner] -= delta.numerator * denoms[corner]
    rows[corner], denoms[corner] = row, denoms[corner] * delta.denominator
    C = Matrix.from_cleared(rows, denoms)
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
