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
cell (i, j).  Admissibility, deletions and block splits are mask
arithmetic on the rows; squares grow on one int that packs every row;
the set of (row, col) pairs is derived only when asked for.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

from .perm import (
    Perm,
    _contains_2143,
    as_perm,
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


def _ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple, each of which must be an int."""
    values = tuple(values)
    # By type, not by value: True and 1.0 equal 1 but are no label, index
    # or part.
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} {values} are not all ints")
    return values


def as_multiset(entries: Iterable[int], m: int) -> tuple[int, ...]:
    """Sort int labels into a weakly increasing tuple over [m]."""
    ms = tuple(sorted(_ints(entries, "labels")))
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
        if (type(self.n) is not int or not isinstance(self.rows, tuple)
                or len(self.rows) != self.n):
            raise ValueError("rows must be a tuple of n masks, n an int")
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


@lru_cache(maxsize=8192)  # room for the 5,913 words of S_1..S_7
def _upper_interval_rows(v: Perm, skip: int = 0) -> tuple[int, ...]:
    """
    Row masks of the graph of v and of the span of every non-inversion
    that does not involve position ``skip`` (0 skips none).  v must be a
    checked permutation: a bool or float word hits an equal int entry.

    The kept spans through row i nest inside the one from the least kept
    value at or before i to the greatest kept value at or after i: when
    those two differ, their positions form a kept non-inversion through
    i.  So each row is the graph cell plus one run of columns between a
    running minimum, taken forward, and a running maximum, taken backward
    in the pass that writes the rows.
    """
    n = len(v)
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
    v = as_perm(v)
    return Grid(len(v), _upper_interval_rows(v))


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
    Oracle for :func:`graph_of_upper_interval`: list [v, w_0] from the
    ``below`` bitsets of :func:`klimm.perm.bruhat_table` (themselves
    tested against ``bruhat_leq``), not from the sandwich description,
    and union the permutation graphs.  u >= v iff w_0 u <= w_0 v, and
    w_0 u has the value n + 1 - x wherever u has x, so (i, n + 1 - x) is
    a cell iff some member of ``below`` at w_0 v has the value x at i:
    one AND per position and value.  Guarded at n <= 7 with the table.
    """
    v = as_perm(v)
    n = len(v)
    table = bruhat_table(n)
    mirrored = table.below[len(table.perms) - 1 - table.index[v]]
    return Grid(n, tuple(
        sum(1 << n + 1 - x for x, members in enumerate(by_value)
            if mirrored & members)
        for by_value in _value_bitsets(n)))


def largest_square(P: Grid) -> int:
    """
    Side of the largest contiguous axis-aligned square block of cells
    fully contained in P; 0 for the empty grid.

    >>> largest_square(graph_of_upper_interval((2, 4, 1, 3)))
    2
    """
    return _square_side(P.n, P.rows)


def _packed(n: int, rows: Sequence[int]) -> int:
    """
    Row masks of an n x n grid packed into one int, row i + 1 at bit
    i * (n + 1), so bit i * (n + 1) + j is the cell (i + 1, j).  Masks
    below 2 ** (n + 1) never overlap; a grid row sets only bits 1..n (Grid
    rejects others), so bit 0 of every packed grid row is clear.
    """
    stride = n + 1
    packed = 0
    for row in reversed(rows):
        packed = packed << stride | row
    return packed


def _square_side(n: int, rows: tuple[int, ...]) -> int:
    """
    :func:`largest_square` of the grid with these n row masks, grown on
    the rows packed by :func:`_packed`, the layout that the cover check of
    :func:`_boxes_cover_interval_graph` shares.
    """
    # Bit i * stride + j of level marks the full side x side square whose
    # top-left cell is (i + 1, j).  Each pass grows every square by one,
    # keeping a square whose neighbour below, then whose neighbour to the
    # right, is also full.  Bit 0 of every row is clear, so the shift by
    # one never carries a cell of the next row into column n.
    stride = n + 1
    level = _packed(n, rows)
    side = 0
    while level:
        side += 1
        level &= level >> stride
        level &= level >> 1
    return side


def _squares_match_noninversions(v: Perm) -> bool:
    """
    Lemma 2.12 on a checked permutation: the largest square of the
    upper-interval graph is one plus the best min(j - i, v_j - v_i) over
    its non-inversions <i, j> (zero if none), and 0 for the empty word.

    A pair can beat the best gap so far only if j - i does, so each row
    of pairs starts past it.
    """
    best = 0
    for i, x in enumerate(v):
        for j in range(i + best + 1, len(v)):
            rise = v[j] - x
            if rise > best:
                best = min(j - i, rise)
    return _square_side(len(v), _upper_interval_rows(v)) == (
        best + 1 if v else 0)


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


def _index_set(indices: Iterable[int]) -> set[int]:
    """The set of 1-based indices, each of which must be an int."""
    return set(_ints(indices, "indices"))


def delete_rows_cols(P: Grid, I: Iterable[int], J: Iterable[int]) -> Grid:
    """
    Delete rows I and columns J, reindexing the survivors by the unique
    order-preserving maps.  An index that is not an int raises ValueError.
    """
    rows_gone = _index_set(I)
    cols_gone = _index_set(J)
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


def _maximal_spans(v: Perm) -> list[tuple[int, int, Color]]:
    """
    (lo, hi, color) of each maximal box of :func:`bounding_boxes`, in its
    order, for a word already checked to be a permutation.  The colour
    names the points that span the box, so the record holds no corners.

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
        hi = n + 1 - x
        if b > hi:
            hi = b
        if hi <= reach:
            continue
        reach = hi
        # The corner above the antidiagonal is (lo, x), below it
        # (hi, n + 1 - lo).
        if lo == hi:
            spans.append((lo, hi, "green"))
        elif b != hi:
            spans.append((lo, hi, "blue"))
        elif x + hi != n + 1:
            spans.append((lo, hi, "red"))
        else:
            spans.append((lo, hi, "purple"))
    return spans


def bounding_boxes(v: Perm) -> list[BoundingBox]:
    """
    The maximal boxes anchored at graph points, ordered by northmost row.
    A corner strictly above the antidiagonal colors its box blue, below
    colors it red, on the antidiagonal green; a region spanned from both
    sides at once is purple.  A word that is not a permutation raises
    ValueError.

    The corners are rebuilt from each (lo, hi, color) record of
    :func:`_maximal_spans` and the checked word: a green or blue box is
    spanned from (lo, v_lo), a red one from (hi, n + 1 - lo), and a
    purple one from both.
    """
    v = as_perm(v)
    n = len(v)
    boxes = []
    for lo, hi, color in _maximal_spans(v):
        above, below = (lo, v[lo - 1]), (hi, n + 1 - lo)
        corners = ((below,) if color == "red" else
                   (above, below) if color == "purple" else (above,))
        boxes.append(BoundingBox((lo, hi), (n + 1 - hi, n + 1 - lo),
                                 corners, color))
    return boxes


@lru_cache(maxsize=None)
def _stacked_row_units(n: int) -> tuple[int, ...]:
    """
    Entry k has bit 0 of each of the rows 1..k set in the layout of
    :func:`_packed`, so rows lo..hi are ``stacked[hi] ^ stacked[lo - 1]``.
    """
    return tuple(_packed(n, (1,) * k) for k in range(n + 1))


def _boxes_cover_interval_graph(v: Perm) -> bool:
    """
    Lemma 2.16 on a checked permutation: its boxes cover its graph.

    The cover is one int in the layout of :func:`_packed`: a box adds its
    column mask times the units of its rows.  A column mask sets no bit
    past n, below the stride, so the product is that mask copied into
    each row with no carry.  The test is exact for any list of boxes,
    nested or not.
    """
    rows = _upper_interval_rows(v)
    n = len(rows)
    stacked = _stacked_row_units(n)
    cover = 0
    for lo, hi, _ in _maximal_spans(v):
        cover |= _columns(n + 1 - hi, n + 1 - lo) * (
            stacked[hi] ^ stacked[lo - 1])
    return not _packed(n, rows) & ~cover


def spanning_corners(v: Perm) -> frozenset[Cell]:
    """Graph points that span some maximal bounding box."""
    return frozenset(c for box in bounding_boxes(v) for c in box.corners)


def _alternation_applies(v: Perm) -> bool:
    """Prop. 2.17 applies: v avoids 2143, w_0 v is in no maximal parabolic."""
    return not (_contains_2143(v) or is_in_maximal_parabolic(
        compose(longest_element(len(v)), v)))


def _boxes_alternate(v: Perm) -> bool:
    """
    Prop. 2.17 where its hypotheses hold: the bounding boxes, read from
    the top, alternate strictly between blue and red with no purple box.
    A single box passes vacuously.
    """
    colors = [color for _, _, color in _maximal_spans(v)]
    return len(colors) <= 1 or (set(colors) <= {"blue", "red"} and all(
        a != b for a, b in zip(colors, colors[1:])))


# ---------------------------------------------------------------------------
# Young-diagram grids.


def young_diagram_grid(parts: Sequence[int], n: int) -> Grid:
    """The grid {(i, j) : j <= lambda_i} inside [n]^2; int parts only."""
    padded = _validated_partition(parts, n)
    return Grid(n, tuple(_columns(1, p) for p in padded))


def young_complement_grid(parts: Sequence[int], n: int) -> Grid:
    """The grid {(i, j) : j > mu_i} inside [n]^2, for int parts mu."""
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
    if type(n) is not int:  # as in Grid
        raise ValueError(f"grid size {n!r} is not an int")
    parts = _ints(parts, "parts")
    padded = parts + (0,) * (n - len(parts))
    if len(padded) != n:
        raise ValueError(f"partition {parts} has more than {n} parts")
    if any(p < 0 or p > n for p in padded):
        raise ValueError(f"partition {parts} does not fit in a {n}x{n} box")
    if any(a < b for a, b in zip(padded, padded[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return padded


# ---------------------------------------------------------------------------
# Block-antidiagonal structure and deletions.


def _antidiagonal_split(rows: tuple[int, ...]) -> int | None:
    """The least j such that the cells of ``rows`` fit inside an
    upper-right block of size n - j and a lower-left block of size j, or
    None when there is none."""
    n = len(rows)
    for j in range(1, n):
        s = n - j
        if (not any(mask & _columns(1, j) for mask in rows[:s])
                and all(mask < 2 << j for mask in rows[s:])):
            return j
    return None


def block_antidiagonal_split(P: Grid) -> tuple[int, Grid, Grid] | None:
    """
    If the cells fit inside an upper-right block of size n - j and a
    lower-left block of size j for some minimal j, return j and the two
    blocks reindexed to their own coordinates.
    Returns None when no such split exists.
    """
    j = _antidiagonal_split(P.rows)
    if j is None:
        return None
    s = P.n - j
    return (j, Grid(s, tuple(mask >> j for mask in P.rows[:s])),
            Grid(j, P.rows[s:]))


def _deleted_interval_rows(v: Perm, i: int, *skip: int) -> tuple[int, ...]:
    """The rows of a checked permutation v, pruned at position ``skip`` if
    given, with row i and column v_i deleted."""
    return delete_rows_cols(Grid(len(v), _upper_interval_rows(v, *skip)),
                            {i}, {v[i - 1]}).rows


def _deletes_to_interval_graph(v: Perm, i: int, *skip: int) -> bool:
    """
    The deletion identities on a checked permutation v: deleting row i and
    column v_i from the rows of v, pruned at position ``skip`` if given,
    leaves the interval graph of v with v_i deleted.  Pruned at i, this
    matches removing row i, column v_i and the cells sandwiched only
    through position i, which the interval graph loses when the
    non-inversions through i are left out of it.  Unpruned, it is the
    stronger statement available when (i, v_i) spans no maximal box.
    """
    return (_deleted_interval_rows(v, i, *skip)
            == _upper_interval_rows(delete_entry(v, i)))
