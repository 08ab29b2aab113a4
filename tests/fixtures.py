"""
Deterministic worked-example fixtures shared by the tests.  Everything
here is small enough to re-derive by hand, which is the point: these are
the anchor values the rest of the machinery is checked against.
"""
from conftest import from_rows

# 4x4 matrix that is 2-positive but not 3-positive: its upper-left 3x3
# minor equals -2 while every minor of size <= 2 is positive.
TWO_POSITIVE_NOT_THREE = from_rows([
    [22, 18, 6, 3],
    [8, 7, 3, 2],
    [2, 2, 1, 2],
    [1, 2, 2, 6],
])

# TWO_POSITIVE_NOT_THREE restricted to the interval graph of 2413.
RESTRICTED_TO_2413_GRAPH = from_rows([
    [0, 18, 6, 3],
    [0, 7, 3, 2],
    [2, 2, 1, 0],
    [1, 2, 2, 0],
])

# Repeated-row submatrix of TWO_POSITIVE_NOT_THREE for labels
# R = {1,1,3}, C = {2,3,4}: rows 1 and 2 coincide by construction.
REPEATED_113_234 = from_rows([
    [18, 6, 3],
    [18, 6, 3],
    [2, 1, 2],
])

# Signed restricted determinant of TWO_POSITIVE_NOT_THREE over the
# interval graph of 2413: the immanant value both routes must produce.
IMMANANT_2413_VALUE = 39

# n = 10 word whose five maximal bounding boxes come out blue, red,
# blue, green, purple (top to bottom), with the purple box spanned from
# both sides at once.
BOX_COLORING_WORD = (6, 10, 4, 7, 8, 9, 5, 3, 1, 2)
BOX_COLORING_CORNERS = frozenset(
    {(1, 6), (3, 4), (6, 9), (8, 3), (9, 1), (10, 2)})
BOX_COLORING_COLORS = ("blue", "red", "blue", "green", "purple")

# Word whose interval graph is block-antidiagonal: lower-left block of
# size 3, upper-right block of size 5 matching the words below.
BLOCK_SPLIT_WORD = (7, 4, 5, 8, 6, 1, 3, 2)
BLOCK_SPLIT_J = 3
BLOCK_SPLIT_UPPER = (4, 1, 2, 5, 3)
BLOCK_SPLIT_LOWER = (1, 3, 2)

# Deleting the value 2 (position 2) from this word demonstrates the
# grid-deletion identity including its pruned sandwiched-only region.
DELETION_WORD = (6, 2, 7, 8, 5, 3, 1, 4)
DELETION_POSITION = 2
DELETION_RESULT = (5, 6, 7, 4, 2, 1, 3)

# Label multisets for the admissibility example on the graph of 2413:
# the (A, B) pair is admissible, (A, A) is not (columns 2 and 3 share
# label 2 and full support).
ADMISSIBLE_ROW_LABELS = (1, 2, 2, 3)
ADMISSIBLE_COL_LABELS = (1, 2, 3, 3)
