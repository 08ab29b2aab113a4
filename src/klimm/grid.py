"""
Graphs of upper Bruhat intervals and their combinatorics.

The central object is the union of permutation graphs over an interval
[v, w_0], drawn in an n x n grid with rows increasing downward and
columns increasing rightward (matrix convention).  A cell is a pair
(row, col), 1-indexed.  A grid is its cells and nothing else: the
weakly increasing row and column labels (R, C) of a repeated-row/column
basis element matter only to admissibility, so they are arguments of
:func:`is_admissible`.  The identity labels (1, ..., n) make the
unlabeled theory a special case of the labeled one.

A grid is stored as one bitmask per row, bit j of row i marking the
cell (i, j).  Admissibility, squares, deletions and block splits are
mask arithmetic; the set of (row, col) pairs is derived only when asked
for.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .errors import PatternPreconditionError, PreconditionError
from .perm import (
    Perm,
    as_perm,
    avoids,
    bruhat_table,
    compose,
    delete_entry,
    is_in_maximal_parabolic,
    iter_bits,
    longest_element,
)

Cell = tuple[int, int]

# Patterns whose avoidance makes the determinantal immanant formula valid.
FORBIDDEN_PATTERNS: tuple[Perm, Perm] = ((1, 3, 2, 4), (2, 1, 4, 3))


def as_multiset(entries: Iterable[int], m: int) -> tuple[int, ...]:
    """Sort a collection of labels into a weakly increasing tuple over [m]."""
    ms = tuple(sorted(entries))
    if any(not 1 <= e <= m for e in ms):
        raise ValueError(f"labels {ms} not all in [1, {m}]")
    return ms


def label_patterns(n: int, max_labels: int) -> list[tuple[int, ...]]:
    """
    Canonical representatives of weakly increasing label tuples up to the
    pattern of equalities: one tuple per composition of n into at most
    max_labels parts, using the smallest possible labels.

    >>> label_patterns(3, 3)
    [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3)]
    """
    # A cut at c starts a new label after position c.
    cut_sets = itertools.chain.from_iterable(
        itertools.combinations(range(1, n), k)
        for k in range(min(n, max_labels)))
    return sorted(tuple(1 + sum(c < pos for c in cuts)
                        for pos in range(1, n + 1)) for cuts in cut_sets)


def _columns(lo: int, hi: int) -> int:
    """Row mask of the columns lo..hi; 0 when hi = lo - 1, negative below."""
    return (2 << hi) - (1 << lo)


@dataclass(frozen=True)
class Grid:
    """
    A subset of [n]^2.  Bit j of ``rows[i - 1]`` is the cell (i, j), so
    only bits 1..n may be set.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.rows, tuple) or len(self.rows) != self.n:
            raise ValueError("rows must be a tuple of n masks")
        if reduce(operator.or_, self.rows, 0) & ~_columns(1, self.n):
            raise ValueError(f"row mask with a column outside [1, {self.n}]")

    def has_cell(self, i: int, j: int) -> bool:
        return (1 <= i <= self.n and 1 <= j <= self.n
                and bool(self.rows[i - 1] >> j & 1))

    def to_doc(self) -> dict:
        """The cells, with the identity labels the grid format records."""
        return {
            "n": self.n,
            "cells": [[i, j] for i, mask in enumerate(self.rows, start=1)
                      for j in iter_bits(mask)],
            "row_labels": list(range(1, self.n + 1)),
            "col_labels": list(range(1, self.n + 1)),
        }


@lru_cache(maxsize=None)
def _upper_interval_rows(v: Perm, skip: int = 0) -> tuple[int, ...]:
    """
    Row masks of the graph of v and of the span of every non-inversion
    that does not involve position ``skip`` (0 skips none).

    The kept spans through row i nest inside the one from the least kept
    value at or before i to the greatest kept value at or after i: when
    those two differ, their positions form a kept non-inversion through
    i.  So each row is the graph cell plus one run of columns between a
    running minimum, taken forward, and a running maximum, taken backward
    in the pass that writes the rows.
    """
    n = len(as_perm(v))
    skipped = skip - 1  # 0-based; -1 leaves every position in
    lows, low = [], n + 1
    for i, x in enumerate(v):
        if x < low and i != skipped:
            low = x
        lows.append(low)
    rows, high = [0] * n, 0
    for i in range(n - 1, -1, -1):
        x, low = v[i], lows[i]
        if x > high and i != skipped:
            high = x
        rows[i] = 1 << x | (_columns(low, high) if low < high else 0)
    return tuple(rows)


def graph_of_upper_interval(v: Perm) -> Grid:
    """
    The union of graphs of all u >= v: the graph of v together with every
    cell sandwiched by one of its non-inversions.  A word that is not a
    permutation raises ValueError.

    >>> graph_of_upper_interval((2, 4, 1, 3)).to_doc()["cells"][:3]
    [[1, 2], [1, 3], [1, 4]]
    """
    return Grid(len(v), _upper_interval_rows(tuple(v)))


@lru_cache(maxsize=None)
def _value_bitsets(n: int) -> tuple[tuple[int, ...], ...]:
    """
    Bit k of ``at[i][x]`` is set iff the permutation at position k of
    ``bruhat_table(n)`` has the value x at the 0-based position i
    (``at[i][0]`` is 0).
    """
    at = [[0] * (n + 1) for _ in range(n)]
    for k, v in enumerate(bruhat_table(n).perms):
        bit = 1 << k
        for by_value, x in zip(at, v):
            by_value[x] |= bit
    return tuple(map(tuple, at))


def graph_of_interval_bruteforce(v: Perm) -> Grid:
    """
    Oracle for :func:`graph_of_upper_interval`: list [v, w_0] from
    ``above[v]`` of :func:`klimm.perm.bruhat_table` (itself tested against
    ``bruhat_leq``), not from the sandwich description, and union the
    permutation graphs: (i, x) is a cell iff some member has the value x
    at i, one AND of ``above[v]`` with a bitset of the table.  Guarded at
    n <= 7 with the table.
    """
    v = as_perm(v)
    table = bruhat_table(len(v))
    interval = table.above[table.index[v]]
    return Grid(len(v), tuple(
        sum(1 << x for x, members in enumerate(by_value) if interval & members)
        for by_value in _value_bitsets(len(v))))


def largest_square(P: Grid) -> int:
    """
    Side of the largest contiguous axis-aligned square block of cells
    fully contained in P; 0 for the empty grid.

    >>> largest_square(graph_of_upper_interval((2, 4, 1, 3)))
    2
    """
    # Bit j of level[i] marks the full side x side square whose top-left
    # cell is (i + 1, j); each pass grows every square by one.
    level = list(P.rows)
    side = 0
    while any(level):
        side += 1
        level = [a & b & (a & b) >> 1 for a, b in zip(level, level[1:])]
    return side


def squares_match_noninversions(v: Perm) -> bool:
    """
    Self-check: the largest square in the upper-interval graph equals one
    plus the best min(j - i, v_j - v_i) over non-inversions <i, j> (zero
    when there is none), and the empty word has no square at all.

    A pair can beat the best gap so far only if j - i does, so each row
    of pairs starts past it.
    """
    best = 0
    for i, x in enumerate(v):
        for j in range(i + best + 1, len(v)):
            rise = v[j] - x
            if rise > best:
                best = min(j - i, rise)
    predicted = best + 1 if v else 0
    return largest_square(graph_of_upper_interval(v)) == predicted


def is_admissible(P: Grid, R: Sequence[int], C: Sequence[int]) -> bool:
    """
    Whether P is (R, C)-admissible: no two rows with equal labels in R
    share their support, and likewise for columns and C.  This is exactly
    the condition for the restricted repeated-row/column matrix to have
    no two identical rows or columns forced by the labeling.  R and C
    must be weakly increasing of length n, else ValueError.

    >>> G = graph_of_upper_interval((2, 4, 1, 3))
    >>> is_admissible(G, (1, 2, 3, 4), (1, 2, 3, 4))
    True

    Rows 1 and 2 both have the support {2, 3, 4}, so they may not share
    a label:

    >>> is_admissible(G, (1, 1, 2, 3), (1, 2, 3, 4))
    False
    """
    for labels in (R, C):
        if len(labels) != P.n:
            raise ValueError(f"labels {tuple(labels)} must have length {P.n}")
        if any(a > b for a, b in zip(labels, labels[1:])):
            raise ValueError(f"labels must be weakly increasing: {tuple(labels)}")
    cols = [sum((mask >> j & 1) << i for i, mask in enumerate(P.rows))
            for j in range(1, P.n + 1)]
    return (len(set(zip(R, P.rows))) == P.n
            and len(set(zip(C, cols))) == P.n)


def delete_rows_cols(P: Grid, I: Iterable[int], J: Iterable[int]) -> Grid:
    """
    Delete rows I and columns J, reindexing the survivors by the unique
    order-preserving maps.
    """
    rows_gone = frozenset(I)
    cols_gone = frozenset(J)
    if len(rows_gone) != len(cols_gone):
        raise ValueError("must delete equally many rows and columns")
    if any(not 1 <= i <= P.n for i in rows_gone | cols_gone):
        raise IndexError("deletion index out of range")
    kept_rows = [i for i in range(1, P.n + 1) if i not in rows_gone]
    kept_cols = [j for j in range(1, P.n + 1) if j not in cols_gone]
    rows = tuple(sum(1 << new for new, old in enumerate(kept_cols, start=1)
                     if P.rows[i - 1] >> old & 1) for i in kept_rows)
    return Grid(len(kept_rows), rows)


# ---------------------------------------------------------------------------
# Bounding boxes.

Color = str  # "red", "green", "blue", or "purple"


@dataclass(frozen=True)
class BoundingBox:
    """
    A square region with one corner on the permutation graph and two on
    the antidiagonal.  ``corners`` lists the graph points that span the
    region (two of them exactly when the region is purple).
    """

    rows: tuple[int, int]
    cols: tuple[int, int]
    corners: tuple[Cell, ...]
    color: Color


def _maximal_spans(v: Perm) -> list[tuple[int, int, tuple[Cell, ...], Color]]:
    """
    (lo, hi, corners, color) of each maximal box of :func:`bounding_boxes`,
    in its order, for a word already checked to be a permutation.

    The box at (i, v_i) spans the rows {i, n + 1 - v_i} and the mirrored
    columns {v_i, n + 1 - i}, so rows lo..hi come with columns
    n + 1 - hi..n + 1 - lo, and one box contains another iff its row span
    does.  Only two points can span down from row lo: (lo, v_lo), to the
    row n + 1 - v_lo when that is not above lo, and the point with the
    value n + 1 - lo, from its own row when that is below lo.  Read by
    lo, the longer of the two is maximal iff it reaches below every span
    before it.  When neither spans from lo, both ends lie above lo, and
    the earlier span that holds row lo already reaches past them.
    """
    n = len(v)
    row_of = [0] * (n + 1)
    for i, x in enumerate(v, start=1):
        row_of[x] = i
    spans = []
    reach = 0
    for lo, x in enumerate(v, start=1):
        b = row_of[n + 1 - lo]  # the row of the value n + 1 - lo
        hi = max(n + 1 - x, b)
        if hi <= reach:
            continue
        reach = hi
        # The corner above the antidiagonal is (lo, x), below it
        # (hi, n + 1 - lo).
        if lo == hi:
            spans.append((lo, hi, ((lo, x),), "green"))
        elif b != hi:
            spans.append((lo, hi, ((lo, x),), "blue"))
        elif x + hi != n + 1:
            spans.append((lo, hi, ((hi, n + 1 - lo),), "red"))
        else:
            spans.append((lo, hi, ((lo, x), (hi, n + 1 - lo)), "purple"))
    return spans


def bounding_boxes(v: Perm) -> list[BoundingBox]:
    """
    The maximal boxes anchored at graph points, ordered by northmost row.
    A corner strictly above the antidiagonal colors its box blue, below
    colors it red, on the antidiagonal green; a region spanned from both
    sides at once is purple.  A word that is not a permutation raises
    ValueError.
    """
    n = len(as_perm(v))
    return [BoundingBox((lo, hi), (n + 1 - hi, n + 1 - lo), corners, color)
            for lo, hi, corners, color in _maximal_spans(v)]


def boxes_cover_interval_graph(v: Perm) -> bool:
    """Self-check: the maximal bounding boxes cover the upper-interval graph."""
    rows = _upper_interval_rows(tuple(v))
    n = len(rows)
    cover = [0] * n
    for lo, hi, _, _ in _maximal_spans(v):
        span = _columns(n + 1 - hi, n + 1 - lo)
        for i in range(lo - 1, hi):
            cover[i] |= span
    return not any(row & ~covered for row, covered in zip(rows, cover))


def spanning_corners(v: Perm) -> frozenset[Cell]:
    """Graph points that span some maximal bounding box."""
    return frozenset(c for box in bounding_boxes(v) for c in box.corners)


def boxes_alternate(v: Perm) -> bool:
    """
    Under the stated hypotheses (v avoids 2143 and w_0 v is not inside a
    maximal parabolic), the bounding boxes, read from the top, must
    alternate strictly between blue and red with no purple box.  A single
    box passes vacuously.  Hypothesis failures raise, so a sweep can tell
    them apart from genuine violations.
    """
    if not avoids(v, (2, 1, 4, 3)):
        raise PatternPreconditionError(f"{v} contains the pattern 2143")
    if is_in_maximal_parabolic(compose(longest_element(len(v)), v)):
        raise PreconditionError(
            f"w0 * {v} lies in a maximal parabolic subgroup")
    colors = [color for _, _, _, color in _maximal_spans(v)]
    if len(colors) <= 1:
        return True
    if any(c not in ("blue", "red") for c in colors):
        return False
    return all(a != b for a, b in zip(colors, colors[1:]))


# ---------------------------------------------------------------------------
# Young-diagram grids.


def young_diagram_grid(parts: Sequence[int], n: int) -> Grid:
    """The grid {(i, j) : j <= lambda_i} inside [n]^2."""
    padded = _validated_partition(parts, n)
    return Grid(n, tuple(_columns(1, p) for p in padded))


def young_complement_grid(parts: Sequence[int], n: int) -> Grid:
    """The grid {(i, j) : j > mu_i} inside [n]^2, for mu = parts."""
    padded = _validated_partition(parts, n)
    return Grid(n, tuple(_columns(p + 1, n) for p in padded))


def is_young_shaped(P: Grid) -> bool:
    """
    Whether P is a Young-diagram grid, its rows left-justified and
    weakly shorter going down, or the complement of one, its rows
    right-justified and weakly longer going down.

    >>> is_young_shaped(young_complement_grid((2, 1), 3))
    True
    >>> is_young_shaped(graph_of_upper_interval((2, 4, 1, 3)))
    False
    """
    n = P.n
    sizes = [mask.bit_count() for mask in P.rows]
    return (sizes == sorted(sizes, reverse=True)
            and P.rows == tuple(_columns(1, s) for s in sizes)
            or sizes == sorted(sizes)
            and P.rows == tuple(_columns(n + 1 - s, n) for s in sizes))


def _validated_partition(parts: Sequence[int], n: int) -> tuple[int, ...]:
    padded = tuple(parts) + (0,) * (n - len(parts))
    if len(padded) != n:
        raise ValueError(f"partition {tuple(parts)} has more than {n} parts")
    if any(p < 0 or p > n for p in padded):
        raise ValueError(f"partition {tuple(parts)} does not fit in a {n}x{n} box")
    if any(a < b for a, b in zip(padded, padded[1:])):
        raise ValueError(f"parts must be weakly decreasing: {tuple(parts)}")
    return padded


# ---------------------------------------------------------------------------
# Block-antidiagonal structure and deletions.


def block_antidiagonal_split(P: Grid) -> tuple[int, Grid, Grid] | None:
    """
    If the cells fit inside an upper-right block of size n - j and a
    lower-left block of size j for some minimal j, return j and the two
    blocks reindexed to their own coordinates.
    Returns None when no such split exists.
    """
    n = P.n
    for j in range(1, n):
        s = n - j
        top, bottom = P.rows[:s], P.rows[s:]
        if (not any(mask & _columns(1, j) for mask in top)
                and all(mask < 2 << j for mask in bottom)):
            return j, Grid(s, tuple(mask >> j for mask in top)), Grid(j, bottom)
    return None


def _deletes_to_interval_graph(v: Perm, i: int, rows: tuple[int, ...]) -> bool:
    """
    Deleting row i and column v_i from ``rows`` leaves the interval graph
    of the word with v_i deleted.
    """
    x = delete_entry(v, i)
    reduced = delete_rows_cols(Grid(len(v), rows), {i}, {v[i - 1]})
    return reduced.rows == _upper_interval_rows(x)


def deletion_pruned_grid_identity(v: Perm, i: int) -> bool:
    """
    Deleting v_i from the word matches, at the level of grids, removing
    row i, column v_i, and the cells sandwiched only through position i.
    Those cells are what the interval graph loses when the non-inversions
    through i are left out of it.
    """
    return _deletes_to_interval_graph(v, i, _upper_interval_rows(tuple(v), i))


def deletion_grid_identity(v: Perm, i: int) -> bool:
    """
    The stronger statement available when (i, v_i) spans no maximal box:
    plain row/column deletion of the upper-interval graph already gives
    the graph for the shortened word.
    """
    return _deletes_to_interval_graph(v, i, _upper_interval_rows(tuple(v)))
