"""
Kazhdan-Lusztig immanants and the determinantal basis elements built
from them.

Two evaluation routes coexist on purpose.  The defining sum weights each
monomial m_{1,w(1)} ... m_{n,w(n)} by a signed Kazhdan-Lusztig value and
works for every permutation; the determinantal route restricts the
matrix to the upper-interval graph and only applies when the indexing
permutation avoids 1324 and 2143.  Where both apply they must agree, and
the harness leans on that agreement as its main oracle.

The defining sum does not visit [v, w0] term by term.  Taking every
value P_{w0 w, w0 v}(1) as 1 leaves the signed sum of the monomials of
w >= v, and by Ehresmann's tableau criterion (Bjorner and Brenti,
*Combinatorics of Coxeter Groups*, Thm 2.6.3) w >= v is a condition on
the prefix value sets of w alone.  So that sum is a Laplace expansion
down the rows over at most 2^n column sets of n steps each, not up to n!
monomials.  Only the Kazhdan-Lusztig value classes with P(1) != 1 are
then summed monomial by monomial, weighted by P(1) - 1; a 1324- and
2143-avoiding v has none.

Pattern preconditions are hard errors rather than silent fallbacks: a
sweep must never confuse "the formula holds" with "we quietly switched
to the defining sum".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import prod
from operator import ge, itemgetter, methodcaller
from typing import Sequence

from .errors import PatternPreconditionError, PreconditionError, ShapeError
from .exactmat import (
    Matrix,
    _masked_det,
    _require_square,
    _restricted_det,
    deleted_det,
    repeat_submatrix,
    restrict,
)
from .grid import (
    FORBIDDEN_PATTERNS,
    Grid,
    _antidiagonal_split,
    _deleted_interval_rows,
    _upper_interval_rows,
    as_multiset,
    bounding_boxes,
    graph_of_upper_interval,
    is_admissible,
    is_young_shaped,
    largest_square,
)
from .klpoly import KLCache, _bit_flags, _imm_classes, cache_for
from .perm import (
    Perm,
    as_perm,
    avoids,
    bruhat_table,
    delete_entry,
    format_perm,
    inverse,
    length,
)


def _require_avoiding(v: Perm) -> None:
    if not avoids(v, *FORBIDDEN_PATTERNS):
        raise PatternPreconditionError(
            f"{format_perm(v)} contains 1324 or 2143; "
            "the determinantal formula does not apply")


def obeys_sign_law(signed: Fraction, positive: bool) -> bool:
    """
    The sign law at one evaluation: a signed restricted determinant must
    be strictly positive where the law predicts it (an admissible grid)
    and zero everywhere else.
    """
    return signed > 0 if positive else signed == 0


@lru_cache(maxsize=None)
def _monomial_getters(n: int) -> tuple[itemgetter, ...]:
    """
    One getter per position x of the Bruhat table of S_n (n >= 2): it
    reads the factors of the monomial of w = w0 perms[x] = perms[top - x],
    the entries (i, w(i)), off an n x n matrix flattened row by row.  So
    bit x of a class of :func:`klimm.klpoly._imm_classes` selects getter x.
    """
    return tuple(itemgetter(*(i * n + c - 1 for i, c in enumerate(w)))
                 for w in reversed(bruhat_table(n).perms))


@lru_cache(maxsize=None)
def _gale_steps(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """
    The tables of :func:`_interval_sum` on S_n, indexed by the sets of
    0-based columns as bitsets: ``up[S]`` lists the sets T of the size of
    S that are >= S in the Gale order (the i-th least member of T is at
    least that of S, for every i), and ``steps[T]`` holds the pairs
    (j, T - j) of the members j of T, taken down from the greatest, in
    two tuples: those at even places (sign +) and those at odd places
    (sign -).
    """
    members = [tuple(j for j in range(n) if T >> j & 1) for T in range(1 << n)]
    sized = [[T for T in range(1 << n) if T.bit_count() == k]
             for k in range(n + 1)]
    up = tuple(tuple(T for T in sized[len(low)] if all(map(ge, members[T], low)))
               for low in members)
    steps = [tuple((j, T ^ 1 << j) for j in reversed(elems))
             for T, elems in enumerate(members)]
    return up, tuple((pairs[::2], pairs[1::2]) for pairs in steps)


def _interval_sum(v: Perm, rows: Sequence[Sequence[int]]) -> int:
    """
    The sum of sgn(w) rows[0][w(1) - 1] ... rows[n - 1][w(n) - 1] over
    the w >= v, for a checked permutation v of [n] and n rows of n ints.

    By the tableau criterion, w >= v iff each prefix set {w(1), ..., w(k)}
    is >= {v(1), ..., v(k)} in the Gale order.  So the sum is the Laplace
    expansion of the determinant down the rows that keeps only such
    prefix sets: f(T), for a set T of k columns admissible at k, is the
    signed sum over the fillings of rows 1..k with T whose prefixes are
    all admissible, and f(T) = sum of +-rows[k - 1][j] f(T - j) over the
    j in T, the signs alternating down T from + at its greatest member.
    A set never admissible at its size keeps f = 0 and is skipped.  That
    is at most 2^n sets of at most n steps, not |[v, w0]| <= n! products.

    v = e leaves every set admissible, which gives the determinant; v = w0
    leaves only w0, which gives its signed antidiagonal monomial:

    >>> from klimm.exactmat import det
    >>> rows = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    >>> M = Matrix(tuple(tuple(map(Fraction, row)) for row in rows))
    >>> _interval_sum((1, 2, 3), rows), det(M)
    (-3, Fraction(-3, 1))
    >>> _interval_sum((3, 2, 1), rows), -3 * 5 * 7
    (-105, -105)
    """
    up, steps = _gale_steps(len(v))
    f = [0] * (1 << len(v))  # the sets of size k are written at row k only
    f[0] = 1
    seen = 0
    for row, x in zip(rows, v):
        seen |= 1 << x - 1
        for T in up[seen]:
            total = 0
            plus, minus = steps[T]
            for j, rest in plus:
                if f[rest]:
                    total += row[j] * f[rest]
            for j, rest in minus:
                if f[rest]:
                    total -= row[j] * f[rest]
            f[T] = total
    return f[-1]


def imm_definition(v: Perm, M: Matrix, cache: KLCache | None = None) -> Fraction:
    """
    The defining sum: one signed Kazhdan-Lusztig value times the
    w-monomial of M per w >= v (all other values vanish), summed by the
    tableau criterion in at most 2^n n steps plus a correction for the
    values P(1) != 1 (see :func:`_imm_definition`).  Works for every v;
    the KL table guards the size at n <= 7.  A matrix of the wrong size
    raises ShapeError, a word that is not a permutation ValueError, and
    then a cache for another S_n SizeMismatchError.
    """
    v = tuple(v)
    _require_square(M, len(v))
    return _imm_definition(as_perm(v), M, cache_for(cache, v))


def _imm_definition(v: Perm, M: Matrix, cache: KLCache) -> Fraction:
    """
    :func:`imm_definition` of a checked v on an n x n M and a cache for
    S_n.  With every P(1) taken as 1, the sum is (-1)^l(v) times
    :func:`_interval_sum` on M's cleared integer rows, in at most 2^n n
    steps.  Each value class of the row of w0 v with P(1) != 1 then adds
    P(1) - 1 times its signed monomials, summed in one pass per class;
    the row is read first in any case, for its KL counts and the table's
    size guard.  Each monomial takes one entry from every row, so the
    integer total over the product of the row multipliers is exact.
    """
    n = len(v)
    rows, denoms = M.cleared
    classes = _imm_classes(v, cache) if n > 1 else ()  # n < 2: P = 1 only
    total = (-1) ** length(v) * _interval_sum(v, rows)
    corrections = [(c - 1, plus, minus) for c, plus, minus in classes if c != 1]
    if corrections:
        read = methodcaller("__call__", list(chain.from_iterable(rows)))
        getters = _monomial_getters(n)

        def monomials(bits: int) -> int:
            return sum(map(prod, map(read, compress(getters, _bit_flags(bits)))))

        total += sum(c * (monomials(plus) - monomials(minus))
                     for c, plus, minus in corrections)
    return Fraction(total, prod(denoms))


def imm_determinantal(v: Perm, M: Matrix) -> Fraction:
    """
    (-1)^l(v) times the determinant of M restricted to the graph of
    [v, w0].  Only valid when v avoids 1324 and 2143 (checked).
    """
    v = tuple(v)
    _require_avoiding(v)
    _require_square(M, len(v))
    return _imm_determinantal(v, M)


def _imm_determinantal(v: Perm, M: Matrix) -> Fraction:
    """:func:`imm_determinantal` of a checked 1324- and 2143-avoiding v
    on an n x n M, cut on the cached rows of its interval graph."""
    value = _masked_det(M, _upper_interval_rows(v))
    return -value if length(v) % 2 else value


@dataclass(frozen=True)
class ImmanantResult:
    """A single evaluation together with the grid facts that explain it."""

    value: Fraction
    method: str  # "definition" or "determinantal"
    v: Perm
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    admissible: bool
    largest_square: int
    length_v: int

    def to_doc(self) -> dict:
        return {
            "v": format_perm(self.v),
            "R": list(self.row_labels),
            "C": list(self.col_labels),
            "method": self.method,
            "value": str(self.value),
            "admissible": self.admissible,
            "largest_square": self.largest_square,
            "length_v": self.length_v,
        }


def dual_canonical_eval(v: Perm, R: Sequence[int], C: Sequence[int],
                        M: Matrix, method: str = "determinantal",
                        cache: KLCache | None = None) -> ImmanantResult:
    """
    Evaluate the repeated-row/column basis element indexed by (v, R, C)
    on M.  R and C are weakly increasing label multisets over [m] where
    M is m x m; the result records the (R, C)-admissibility and the
    largest square of the graph of [v, w0] alongside the value.
    """
    v = tuple(v)
    _require_square(M)
    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    if len(R) != len(v) or len(C) != len(v):
        raise ShapeError(
            f"label multisets must have length {len(v)}, "
            f"got {len(R)} and {len(C)}")
    if method not in ("definition", "determinantal"):
        raise ValueError(f"unknown method {method!r}")
    repeated = repeat_submatrix(M, R, C)
    if method == "determinantal":
        value = imm_determinantal(v, repeated)
    else:
        value = imm_definition(v, repeated, cache)
    # Either evaluator has checked v, so the graph is read unchecked.
    graph = Grid(len(v), _upper_interval_rows(v))
    return ImmanantResult(
        value=value,
        method=method,
        v=v,
        row_labels=R,
        col_labels=C,
        admissible=is_admissible(graph, R, C),
        largest_square=largest_square(graph),
        length_v=length(v),
    )


# The block parts and the deleted word below hold a pattern only where v
# does, so they avoid 1324 and 2143 as v does and are not checked again.


def _factor_block_antidiagonal(v: Perm, M: Matrix) -> Fraction:
    """
    Prop. 4.1 on a checked 1324- and 2143-avoiding v whose graph of
    [v, w0] splits into an upper-right and a lower-left antidiagonal
    block, and an n x n M: the immanant is the product of the block
    immanants on the corresponding submatrices.
    """
    j = _antidiagonal_split(_upper_interval_rows(v))
    s = len(v) - j
    # The blocks are cut from M's cleared rows: rows 1..s by columns
    # j+1..n, and rows s+1..n by columns 1..j.
    rows, denoms = M.cleared
    upper = Matrix._reduced(tuple(row[j:] for row in rows[:s]), denoms[:s])
    lower = Matrix._reduced(tuple(row[:j] for row in rows[s:]), denoms[s:])
    return (_imm_determinantal(tuple(x - j for x in v[:s]), upper)
            * _imm_determinantal(v[s:], lower))


def _deletion_det_identity(v: Perm, i: int, M: Matrix) -> bool:
    """
    On a checked 1324- and 2143-avoiding v and an (n - 1) x (n - 1) M:
    deleting v_i from the word and restricting M to the shortened
    interval graph gives the same determinant as restricting M to the
    original graph with row i and column v_i struck out.
    """
    return (_masked_det(M, _upper_interval_rows(delete_entry(v, i)))
            == _masked_det(M, _deleted_interval_rows(v, i)))


def young_sign_law(P: Grid, R: Sequence[int], C: Sequence[int],
                   M: Matrix) -> bool:
    """
    Sign law for a Young-diagram grid or the complement of one, for M
    k-positive at some k at least the largest square of P (the caller
    verifies that): with d the number of cells of the n x n box outside
    P, (-1)^d det(M[R, C] restricted to P) must be strictly positive
    when P holds every antidiagonal cell (i, n + 1 - i) and is
    (R, C)-admissible, and zero otherwise.  A Young diagram holds the
    antidiagonal iff it contains the staircase (n, ..., 1), and the
    complement of mu iff mu fits inside (n - 1, ..., 1, 0).  Any other
    grid raises PreconditionError.

    On a totally positive matrix, (3, 3, 1) holds the antidiagonal and
    misses two cells, so its restricted determinant is positive; a
    repeated label on its two full rows makes it zero:

    >>> from klimm.exactmat import det
    >>> from klimm.grid import young_diagram_grid
    >>> M = Matrix(tuple(tuple(map(Fraction, row))
    ...                  for row in ((1, 1, 1), (1, 2, 3), (1, 3, 6))))
    >>> P = young_diagram_grid((3, 3, 1), 3)
    >>> det(restrict(M, P)), young_sign_law(P, (1, 2, 3), (1, 2, 3), M)
    (Fraction(1, 1), True)
    >>> young_sign_law(P, (1, 1, 2), (1, 2, 3), M)
    True
    """
    if not is_young_shaped(P):
        raise PreconditionError(
            "the grid is neither a Young diagram nor the complement of one")
    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    n = P.n
    value = _restricted_det(repeat_submatrix(M, R, C), P)
    d = n * n - sum(mask.bit_count() for mask in P.rows)
    # Bit n - i of row i, counted from 0, is the antidiagonal cell.
    holds_antidiagonal = all(mask >> n - i & 1 for i, mask in enumerate(P.rows))
    return obeys_sign_law(-value if d % 2 else value,
                          holds_antidiagonal and is_admissible(P, R, C))


@dataclass(frozen=True)
class SignProbeReport:
    """
    Outcome of probing the two-term sign relation around the last two
    bounding boxes.  ``hypotheses_met`` is False when the structural or
    nonvanishing hypotheses cannot be confirmed, with the reasons listed;
    claim statuses are "satisfied", "violated", or "vacuous".
    """

    hypotheses_met: bool
    reasons: tuple[str, ...] = ()
    sigma: int | None = None
    cross_term: str = "not-evaluated"
    complement_term: str = "not-evaluated"

    @property
    def violated(self) -> bool:
        return "violated" in (self.cross_term, self.complement_term)

    def to_doc(self) -> dict:
        return {
            "hypotheses_met": self.hypotheses_met,
            "reasons": list(self.reasons),
            "sigma": self.sigma,
            "cross_term": self.cross_term,
            "complement_term": self.complement_term,
        }


def sign_probe_anchor(v: Perm) -> tuple[tuple[int, int] | None,
                                         tuple[str, ...]]:
    """
    The structural hypotheses of the sign probe: the last bounding box
    is anchored at (n, v_n) and the second-to-last has a unique anchor
    (a, v_a) with a < n and 1 < v_a < v_n.  Returns that anchor and no
    reasons when they hold, else None and the reasons they fail.
    """
    n = len(v)
    boxes = bounding_boxes(v)
    if len(boxes) < 2:
        return None, ("fewer than two bounding boxes",)
    last, second = boxes[-1], boxes[-2]
    reasons = []
    if (n, v[n - 1]) not in last.corners:
        reasons.append("last bounding box is not anchored at (n, v_n)")
    if len(second.corners) != 1:
        reasons.append("second-to-last box has no unique anchor")
        return None, tuple(reasons)
    a, va = second.corners[0]
    if not (a < n and 1 < va < v[n - 1]):
        reasons.append("second-to-last anchor fails a < n, 1 < v_a < v_n")
    return (None if reasons else (a, va)), tuple(reasons)


def lewis_carroll_sign_probe(v: Perm, R: Sequence[int], C: Sequence[int],
                             M: Matrix) -> SignProbeReport:
    """
    Probe the sign claims that drive the general sign theorem: with the
    last bounding box anchored at (n, v_n) and the second-to-last at
    (a, v_a) with 1 < v_a < v_n, write b for the row of value 1 and
    d = v_a.  If the reference product det(A del row b, col 1) *
    det(A del row a, col d) is nonzero with sign sigma, then the crossed
    product must have sign -sigma when nonzero and the doubly deleted
    determinant must have sign -sigma * (-1)^l(v) when nonzero.  (The
    latter sign is forced: the two-row-two-column identity turns these
    three statements into the sharp sign theorem for det A itself, which
    pins the product of the three signs.)  Hypothesis failures are
    reported, never silently skipped.
    """
    v = tuple(v)
    if not avoids(v, *FORBIDDEN_PATTERNS):
        return SignProbeReport(False, ("v contains 1324 or 2143",))
    anchor, reasons = sign_probe_anchor(v)
    if anchor is None:
        return SignProbeReport(False, reasons)
    a, d = anchor  # d = v_a

    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    A = restrict(repeat_submatrix(M, R, C), graph_of_upper_interval(v))
    b = inverse(v)[0]
    reference = deleted_det(A, {b}, {1}) * deleted_det(A, {a}, {d})
    if reference == 0:
        return SignProbeReport(False, ("reference product vanishes",))
    sigma = 1 if reference > 0 else -1

    def status(value: Fraction, expected_sign: int) -> str:
        if value == 0:
            return "vacuous"
        return "satisfied" if (value > 0) == (expected_sign > 0) else "violated"

    crossed = deleted_det(A, {a}, {1}) * deleted_det(A, {b}, {d})
    doubly = deleted_det(A, {a, b}, {1, d})
    complement_sign = -sigma * (-1 if length(v) % 2 else 1)
    return SignProbeReport(
        hypotheses_met=True,
        sigma=sigma,
        cross_term=status(crossed, -sigma),
        complement_term=status(doubly, complement_sign),
    )
