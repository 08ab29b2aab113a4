"""
Graphs of upper Bruhat intervals and their combinatorics.

The central object is the union of permutation graphs over an interval
[v, w_0], drawn in an n x n grid with rows increasing downward and
columns increasing rightward (matrix convention).  A cell is a pair
(row, col), 1-indexed.  Grids carry weakly increasing row and column
labels drawn from [m]; when none are supplied the identity labels
(1, ..., n) are used, which makes the unlabeled theory a special case of
the labeled one.

A grid is stored as one bitmask per row, bit j of row i marking the
cell (i, j).  Admissibility, squares, deletions and block splits are
mask arithmetic; the set of (row, col) pairs is derived only when asked
for.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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
    non_inversions,
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
    out = []
    for cut_set in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(n)):
        if len(cut_set) + 1 > max_labels:
            continue
        labels = []
        current = 1
        for pos in range(1, n + 1):
            labels.append(current)
            if pos in cut_set:
                current += 1
        out.append(tuple(labels))
    return sorted(out)


def _columns(lo: int, hi: int) -> int:
    """Row mask of the columns lo..hi; 0 when hi = lo - 1, negative below."""
    return (2 << hi) - (1 << lo)


@dataclass(frozen=True)
class LabeledGrid:
    """
    A subset of [n]^2 with weakly increasing row and column labels.  Bit j
    of ``rows[i - 1]`` is the cell (i, j), so only bits 1..n may be set.
    """

    n: int
    rows: tuple[int, ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.rows, tuple) or len(self.rows) != self.n:
            raise ValueError("rows must be a tuple of n masks")
        if len(self.row_labels) != self.n or len(self.col_labels) != self.n:
            raise ValueError("labels must have length n")
        for labels in (self.row_labels, self.col_labels):
            if any(a > b for a, b in zip(labels, labels[1:])):
                raise ValueError(f"labels must be weakly increasing: {labels}")
        outside = ~_columns(1, self.n)
        if any(mask & outside for mask in self.rows):
            raise ValueError(f"row mask with a column outside [1, {self.n}]")

    def has_cell(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and bool(self.rows[i - 1] >> j & 1)

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "cells": [[i, j] for i, mask in enumerate(self.rows, start=1)
                      for j in iter_bits(mask)],
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
        }


def _labeled(n: int, rows: Sequence[int],
             row_labels: Sequence[int] | None = None,
             col_labels: Sequence[int] | None = None) -> LabeledGrid:
    """A LabeledGrid from row masks, defaulting to identity labels."""
    identity_labels = tuple(range(1, n + 1))
    return LabeledGrid(
        n, tuple(rows),
        identity_labels if row_labels is None else tuple(row_labels),
        identity_labels if col_labels is None else tuple(col_labels))


@lru_cache(maxsize=None)
def _upper_interval_rows(v: Perm, skip: int = 0) -> tuple[int, ...]:
    """
    Row masks of the graph of v and of the span of every non-inversion
    that does not involve position ``skip`` (0 skips none).

    The kept spans through row i nest inside the one from the least kept
    value at or before i to the greatest kept value at or after i: when
    those two differ, their positions form a kept non-inversion through
    i.  So each row is the graph cell plus one run of columns between a
    running minimum and a running maximum.
    """
    v = as_perm(v)
    kept = [pos != skip for pos in range(1, len(v) + 1)]
    lows = itertools.accumulate(
        (x if keep else len(v) + 1 for x, keep in zip(v, kept)), min)
    highs = list(itertools.accumulate(
        (x if keep else 0 for x, keep in zip(v[::-1], kept[::-1])), max))
    return tuple(1 << x | (_columns(lo, hi) if lo < hi else 0)
                 for x, lo, hi in zip(v, lows, highs[::-1]))


def graph_of_upper_interval(v: Perm,
                            row_labels: Sequence[int] | None = None,
                            col_labels: Sequence[int] | None = None) -> LabeledGrid:
    """
    The union of graphs of all u >= v: the graph of v together with every
    cell sandwiched by one of its non-inversions.  A word that is not a
    permutation raises ValueError.

    >>> graph_of_upper_interval((2, 4, 1, 3)).to_doc()["cells"][:3]
    [[1, 2], [1, 3], [1, 4]]
    """
    return _labeled(len(v), _upper_interval_rows(tuple(v)), row_labels, col_labels)


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


def graph_of_interval_bruteforce(v: Perm) -> LabeledGrid:
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
    return _labeled(len(v), [
        sum(1 << x for x, members in enumerate(by_value) if interval & members)
        for by_value in _value_bitsets(len(v))])


def largest_square(P: LabeledGrid) -> int:
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
    when there is none).
    """
    gaps = [min(j - i, v[j - 1] - v[i - 1]) for (i, j) in non_inversions(v)]
    predicted = 1 + (max(gaps) if gaps else 0)
    return largest_square(graph_of_upper_interval(v)) == predicted


def is_admissible(P: LabeledGrid) -> bool:
    """
    No two rows with equal labels share their support, and likewise for
    columns.  This is exactly the condition for the restricted
    repeated-row/column matrix to have no two identical rows or columns
    forced by the labeling.
    """
    cols = [sum((mask >> j & 1) << i for i, mask in enumerate(P.rows))
            for j in range(1, P.n + 1)]
    return (len(set(zip(P.row_labels, P.rows))) == P.n
            and len(set(zip(P.col_labels, cols))) == P.n)


def delete_rows_cols(P: LabeledGrid, I: Iterable[int],
                     J: Iterable[int]) -> LabeledGrid:
    """
    Delete rows I and columns J, reindexing the survivors by the unique
    order-preserving maps.  Labels travel with their surviving rows and
    columns.
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
    return LabeledGrid(len(kept_rows), rows,
                       tuple(P.row_labels[i - 1] for i in kept_rows),
                       tuple(P.col_labels[j - 1] for j in kept_cols))


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


def bounding_boxes(v: Perm) -> list[BoundingBox]:
    """
    The maximal boxes anchored at graph points, ordered by northmost row.
    A corner strictly above the antidiagonal colors its box blue, below
    colors it red, on the antidiagonal green; a region spanned from both
    sides at once is purple.

    The box at (i, v_i) spans the rows {i, n + 1 - v_i} and the mirrored
    columns {v_i, n + 1 - i}, so rows lo..hi come with columns
    n + 1 - hi..n + 1 - lo, and one box contains another iff its row span
    does.  Sorted by (lo, -hi), a span is maximal iff it reaches below
    every span before it.
    """
    n = len(v)
    spans: dict[tuple[int, int], list[Cell]] = {}
    for i, vi in enumerate(v, start=1):
        span = (i, n + 1 - vi) if i + vi <= n + 1 else (n + 1 - vi, i)
        spans.setdefault(span, []).append((i, vi))
    boxes = []
    reach = 0
    for lo, hi in sorted(spans, key=lambda span: (span[0], -span[1])):
        if hi <= reach:
            continue
        reach = hi
        corners = spans[lo, hi]
        # A span lo < hi has at most two corners: (lo, n + 1 - hi) above
        # the antidiagonal and (hi, n + 1 - lo) below it.
        if lo == hi:
            color = "green"
        elif len(corners) == 2:
            color = "purple"
        else:
            color = "blue" if corners[0][0] == lo else "red"
        boxes.append(BoundingBox((lo, hi), (n + 1 - hi, n + 1 - lo),
                                 tuple(corners), color))
    return boxes


def boxes_cover_interval_graph(v: Perm) -> bool:
    """Self-check: the maximal bounding boxes cover the upper-interval graph."""
    cover = [0] * len(v)
    for box in bounding_boxes(v):
        span = _columns(*box.cols)
        for i in range(box.rows[0] - 1, box.rows[1]):
            cover[i] |= span
    return all(row & ~covered == 0 for row, covered
               in zip(graph_of_upper_interval(v).rows, cover))


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
    boxes = bounding_boxes(v)
    if len(boxes) <= 1:
        return True
    colors = [b.color for b in boxes]
    if any(c not in ("blue", "red") for c in colors):
        return False
    return all(a != b for a, b in zip(colors, colors[1:]))


# ---------------------------------------------------------------------------
# Young-diagram recognition.


def durfee(parts: Sequence[int]) -> int:
    """
    Size of the largest square contained in the Young diagram.

    >>> durfee((3, 3, 1)), durfee(()), durfee((4, 4, 4, 4))
    (2, 0, 4)
    """
    best = 0
    for s, part in enumerate(parts, start=1):
        if part >= s:
            best = s
    return best


def young_diagram_grid(parts: Sequence[int], n: int,
                       row_labels: Sequence[int] | None = None,
                       col_labels: Sequence[int] | None = None) -> LabeledGrid:
    """The grid {(i, j) : j <= lambda_i} inside [n]^2."""
    padded = _validated_partition(parts, n)
    return _labeled(n, [_columns(1, p) for p in padded], row_labels, col_labels)


def young_complement_grid(parts: Sequence[int], n: int,
                          row_labels: Sequence[int] | None = None,
                          col_labels: Sequence[int] | None = None) -> LabeledGrid:
    """The grid {(i, j) : j > mu_i} inside [n]^2, for mu = parts."""
    padded = _validated_partition(parts, n)
    return _labeled(n, [_columns(p + 1, n) for p in padded], row_labels, col_labels)


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


def block_antidiagonal_split(P: LabeledGrid) -> tuple[int, LabeledGrid, LabeledGrid] | None:
    """
    If the cells fit inside an upper-right block of size n - j and a
    lower-left block of size j for some minimal j, return j and the two
    blocks reindexed to their own coordinates, labels carried along.
    Returns None when no such split exists.
    """
    n = P.n
    for j in range(1, n):
        s = n - j
        top, bottom = P.rows[:s], P.rows[s:]
        if (not any(mask & _columns(1, j) for mask in top)
                and all(mask < 2 << j for mask in bottom)):
            upper = LabeledGrid(s, tuple(mask >> j for mask in top),
                                P.row_labels[:s], P.col_labels[j:])
            lower = LabeledGrid(j, bottom, P.row_labels[s:], P.col_labels[:j])
            return j, upper, lower
    return None


def _deletes_to_interval_graph(v: Perm, i: int, rows: tuple[int, ...]) -> bool:
    """
    Deleting row i and column v_i from ``rows`` leaves the interval graph
    of the word with v_i deleted.
    """
    x = delete_entry(v, i)
    reduced = delete_rows_cols(_labeled(len(v), rows), {i}, {v[i - 1]})
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
