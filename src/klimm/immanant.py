"""
Kazhdan-Lusztig immanants and the determinantal basis elements built
from them.

Two evaluation routes coexist on purpose.  The defining sum weights each
monomial m_{1,w(1)} ... m_{n,w(n)} by a signed Kazhdan-Lusztig value and
works for every permutation; the determinantal route restricts the
matrix to the upper-interval graph and only applies when the indexing
permutation avoids 1324 and 2143.  Where both apply they must agree, and
the harness leans on that agreement as its main oracle.

Pattern preconditions are hard errors rather than silent fallbacks: a
sweep must never confuse "the formula holds" with "we quietly switched
to the defining sum".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import getitem
from typing import Sequence

from .errors import PatternPreconditionError, PreconditionError, ShapeError
from .exactmat import (
    Matrix,
    _cleared_rows,
    deleted_det,
    det,
    repeat_submatrix,
    restrict,
    submatrix,
)
from .grid import (
    FORBIDDEN_PATTERNS,
    LabeledGrid,
    as_multiset,
    block_antidiagonal_split,
    bounding_boxes,
    delete_rows_cols,
    graph_of_upper_interval,
    is_admissible,
    largest_square,
    young_complement_grid,
    young_diagram_grid,
)
from .klpoly import KLCache, cache_for, kl_at
from .perm import (
    Perm,
    as_perm,
    avoids,
    delete_entry,
    format_perm,
    inverse,
    iter_bits,
    length,
)


def _require_avoiding(v: Perm) -> None:
    if not avoids(v, *FORBIDDEN_PATTERNS):
        raise PatternPreconditionError(
            f"{format_perm(v)} contains 1324 or 2143; "
            "the determinantal formula does not apply")


def _require_square_of_size(M: Matrix, n: int) -> None:
    if not (M.is_square and M.rows == n):
        raise ShapeError(
            f"matrix is {M.rows}x{M.cols}, expected {n}x{n}")


def obeys_sign_law(signed: Fraction, positive: bool) -> bool:
    """
    The sign law at one evaluation: a signed restricted determinant must
    be strictly positive where the law predicts it (an admissible grid)
    and zero everywhere else.
    """
    return signed > 0 if positive else signed == 0


def _signed_restricted_det(M: Matrix, R: tuple[int, ...], C: tuple[int, ...],
                           grid: LabeledGrid, exponent: int) -> Fraction:
    """(-1)^exponent times det of M[R, C] restricted to the grid."""
    value = det(restrict(repeat_submatrix(M, R, C), grid))
    return -value if exponent % 2 else value


def imm_definition(v: Perm, M: Matrix, cache: KLCache | None = None) -> Fraction:
    """
    The defining sum: over w >= v (all other Kazhdan-Lusztig values
    vanish), add (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1) times the
    w-monomial of M.  It works on positions in the Bruhat table the
    cache owns (``cache.table``): the w run over the set bits of
    ``above[v]``, the table gives l(w), and since left multiplication by
    w0 reverses the lexicographic order, w0 w sits at position
    n! - 1 - (position of w).  The monomials are products of the cleared
    integer rows of M; every monomial takes one entry from each row, so
    the integer total over the product of the row multipliers is exact.
    Works for every v; the table guards the size at n <= 7.  A cache for
    another S_n raises SizeMismatchError.
    """
    v = as_perm(v)
    n = len(v)
    _require_square_of_size(M, n)
    cache = cache_for(cache, v)
    table = cache.table
    rows, denoms = _cleared_rows(M)
    rows = [(0, *row) for row in rows]  # 1-based columns
    perms, odd = table.perms, table.odd
    iv = table.index[v]
    top = len(perms) - 1
    parity = odd >> iv & 1
    total = 0
    for k in iter_bits(table.above[iv]):
        term = (sum(kl_at(cache, top - k, top - iv).coeffs)
                * prod(map(getitem, rows, perms[k])))
        if odd >> k & 1 != parity:
            total -= term
        else:
            total += term
    return Fraction(total, prod(denoms))


def imm_determinantal(v: Perm, M: Matrix) -> Fraction:
    """
    (-1)^l(v) times the determinant of M restricted to the graph of
    [v, w0].  Only valid when v avoids 1324 and 2143 (checked).
    """
    v = tuple(v)
    _require_avoiding(v)
    _require_square_of_size(M, len(v))
    value = det(restrict(M, graph_of_upper_interval(v)))
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
    M is m x m; the result records admissibility and the largest square
    of the labeled grid alongside the value.
    """
    v = tuple(v)
    if not M.is_square:
        raise ShapeError(f"matrix is {M.rows}x{M.cols}, not square")
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
    labeled = graph_of_upper_interval(v, R, C)
    return ImmanantResult(
        value=value,
        method=method,
        v=v,
        row_labels=R,
        col_labels=C,
        admissible=is_admissible(labeled),
        largest_square=largest_square(labeled),
        length_v=length(v),
    )


def factor_block_antidiagonal(v: Perm, M: Matrix) -> Fraction:
    """
    When the upper-interval graph splits into an upper-right and a
    lower-left antidiagonal block, the immanant factors as the product
    of the block immanants on the corresponding submatrices.
    """
    v = tuple(v)
    _require_avoiding(v)
    n = len(v)
    _require_square_of_size(M, n)
    split = block_antidiagonal_split(graph_of_upper_interval(v))
    if split is None:
        raise PreconditionError(
            f"the graph of [{format_perm(v)}, w0] is not block-antidiagonal")
    j, _, _ = split
    s = n - j
    upper_perm = tuple(v[i] - j for i in range(s))
    lower_perm = tuple(v[i] for i in range(s, n))
    upper_part = imm_determinantal(
        upper_perm, submatrix(M, range(1, s + 1), range(j + 1, n + 1)))
    lower_part = imm_determinantal(
        lower_perm, submatrix(M, range(s + 1, n + 1), range(1, j + 1)))
    return upper_part * lower_part


def deletion_det_identity(v: Perm, i: int, M: Matrix) -> bool:
    """
    Deleting v_i from the word and restricting M to the shortened
    interval graph gives the same determinant as restricting M to the
    original graph with row i and column v_i struck out.  M is supplied
    at the shortened size n - 1.
    """
    v = tuple(v)
    _require_avoiding(v)
    _require_square_of_size(M, len(v) - 1)
    x = delete_entry(v, i)
    lhs = det(restrict(M, graph_of_upper_interval(x)))
    reduced = delete_rows_cols(graph_of_upper_interval(v), {i}, {v[i - 1]})
    rhs = det(restrict(M, reduced))
    return lhs == rhs


def _staircase_contained(parts: Sequence[int], n: int) -> bool:
    padded = tuple(parts) + (0,) * (n - len(parts))
    return all(padded[i - 1] >= n + 1 - i for i in range(1, n + 1))


def _contained_in_reverse_staircase(parts: Sequence[int], n: int) -> bool:
    padded = tuple(parts) + (0,) * (n - len(parts))
    return all(padded[i - 1] <= n - i for i in range(1, n + 1))


def young_sign_law(parts: Sequence[int], R: Sequence[int],
                   C: Sequence[int], M: Matrix) -> bool:
    """
    Sign law for a Young-diagram grid, for M k-positive at some k at
    least the Durfee square of the shape (the caller verifies that):
    with mu the complement of the shape in the n x n box, (-1)^|mu|
    times the restricted determinant must be strictly positive when the
    shape contains the staircase (n, ..., 1) and is (R, C)-admissible,
    and zero otherwise.
    """
    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    n = len(R)
    shape = young_diagram_grid(parts, n, R, C)
    signed = _signed_restricted_det(M, R, C, shape, n * n - sum(parts))
    return obeys_sign_law(
        signed, _staircase_contained(parts, n) and is_admissible(shape))


def young_complement_sign_law(parts: Sequence[int], R: Sequence[int],
                              C: Sequence[int], M: Matrix) -> bool:
    """
    Mirror law for the complement grid, for M k-positive at some k at
    least the largest square of the grid (the caller verifies that):
    deleting the shape ``parts`` from the top-left of the n x n box,
    (-1)^|parts| times the restricted determinant is strictly positive
    when ``parts`` fits inside the staircase (n-1, ..., 1, 0) and the
    grid is (R, C)-admissible, and zero otherwise.
    """
    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    n = len(R)
    shape = young_complement_grid(parts, n, R, C)
    signed = _signed_restricted_det(M, R, C, shape, sum(parts))
    return obeys_sign_law(
        signed,
        _contained_in_reverse_staircase(parts, n) and is_admissible(shape))


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
    A = restrict(repeat_submatrix(M, R, C),
                 graph_of_upper_interval(v, R, C))
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
