import itertools
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    above,
    boxes_alternate,
    boxes_cover_interval_graph,
    cells_of,
    cells_sandwiched_only_by,
    col_support,
    deletion_grid_identity,
    deletion_pruned_grid_identity,
    durfee,
    grid,
    non_inversions,
    permutation_graph,
    row_support,
    squares_match_noninversions,
    young_shapes,
)
import fixtures
from klimm.errors import (
    PatternPreconditionError,
    PreconditionError,
    SizeGuardError,
)
from klimm.grid import (
    BoundingBox,
    Grid,
    as_multiset,
    block_antidiagonal_split,
    bounding_boxes,
    delete_rows_cols,
    graph_of_interval_bruteforce,
    graph_of_upper_interval,
    is_admissible,
    is_young_shaped,
    label_patterns,
    largest_square,
    spanning_corners,
    young_complement_grid,
    young_diagram_grid,
    _alternation_applies,
    _boxes_alternate,
    _boxes_cover_interval_graph,
    _maximal_spans,
    _squares_match_noninversions,
    _upper_interval_rows,
)
from klimm.perm import (
    bruhat_leq,
    bruhat_table,
    delete_entry,
    identity,
    iter_bits,
    longest_element,
    symmetric_group,
)

V2413 = (2, 4, 1, 3)


def test_worked_interval_graph():
    G = graph_of_upper_interval(V2413)
    assert len(cells_of(G)) == 12
    assert row_support(G, 1) == frozenset({2, 3, 4})
    assert row_support(G, 2) == frozenset({2, 3, 4})
    assert row_support(G, 3) == frozenset({1, 2, 3})
    assert row_support(G, 4) == frozenset({1, 2, 3})
    assert col_support(G, 1) == frozenset({3, 4})
    assert col_support(G, 2) == frozenset({1, 2, 3, 4})
    assert col_support(G, 3) == frozenset({1, 2, 3, 4})
    assert col_support(G, 4) == frozenset({1, 2})
    assert (4, 4) not in cells_of(G)


def test_interval_graph_extremes():
    n = 5
    assert cells_of(graph_of_upper_interval(longest_element(n))) == \
        permutation_graph(longest_element(n))
    assert len(cells_of(graph_of_upper_interval(identity(n)))) == n * n


@pytest.mark.parametrize("n", range(1, 6))
def test_upper_interval_matches_bruteforce(n):
    for v in symmetric_group(n):
        assert cells_of(graph_of_upper_interval(v)) == \
            cells_of(graph_of_interval_bruteforce(v))


@pytest.mark.parametrize("n", range(1, 7))
def test_bruteforce_matches_a_union_over_the_members_of_above(n):
    # The oracle reads its cells from position/value bitsets of the w_0
    # mirror of below; this union walks the members of [v, w_0] one by
    # one instead.  They come from bruhat_leq over all of S_n up to S_5,
    # not from the table, and from the conftest mirror at S_6, where
    # every pair through bruhat_leq would cost too much tier-1 time.
    table = bruhat_table(n)
    for k, v in enumerate(table.perms):
        if n <= 5:
            members = [u for u in table.perms if bruhat_leq(v, u)]
        else:
            members = [table.perms[j] for j in iter_bits(above(table, k))]
        rows = [0] * n
        for u in members:
            rows = [mask | 1 << x for mask, x in zip(rows, u)]
        assert graph_of_interval_bruteforce(v).rows == tuple(rows)


def test_bruteforce_size_guard():
    with pytest.raises(SizeGuardError):
        graph_of_interval_bruteforce(identity(8))


@pytest.mark.parametrize("word", [(1, 1, 3), (0, 1, 2)])
def test_bruteforce_rejects_words_that_are_not_permutations(word):
    with pytest.raises(ValueError):
        graph_of_interval_bruteforce(word)


@pytest.mark.parametrize("word", [(1, 1, 3), (0, 1, 2), (1, 2, 4)])
def test_interval_graph_rejects_words_that_are_not_permutations(word):
    with pytest.raises(ValueError, match="not a permutation"):
        graph_of_upper_interval(word)
    with pytest.raises(ValueError, match="not a permutation"):
        deletion_pruned_grid_identity(word, 1)
    for reader in (bounding_boxes, boxes_cover_interval_graph,
                   squares_match_noninversions,
                   lambda v: deletion_grid_identity(v, 1)):
        with pytest.raises(ValueError, match="not a permutation"):
            reader(word)


# Every reader of the row cache, and every public form of a sweep kernel.
# The int twins of the words below, (1, 2) and (1, 3, 2), meet the
# hypotheses of boxes_alternate, so only the word check can raise.
WORD_READERS = {
    "graph_of_upper_interval": graph_of_upper_interval,
    "bounding_boxes": bounding_boxes,
    "deletion_grid_identity": lambda v: deletion_grid_identity(v, 1),
    "deletion_pruned_grid_identity":
        lambda v: deletion_pruned_grid_identity(v, 1),
    "squares_match_noninversions": squares_match_noninversions,
    "boxes_cover_interval_graph": boxes_cover_interval_graph,
    "boxes_alternate": boxes_alternate,
}


@pytest.mark.parametrize("reader", WORD_READERS.values(),
                         ids=WORD_READERS.keys())
@pytest.mark.parametrize("word", [(True, 2), (1.0, 2), (1, 2.0),
                                  (True, 3, 2), (1.0, 3, 2)])
def test_a_warm_cache_lets_no_bool_or_float_word_through(reader, word):
    # The word equals, and hashes as, an int permutation whose rows are
    # cached: the row kernel would return them for it, so each reader
    # checks the word before it reads the cache.
    twin = tuple(map(int, word))
    assert reader(twin) is not None
    assert _upper_interval_rows(word) == _upper_interval_rows(twin)
    with pytest.raises(ValueError, match="must be a permutation|"
                                         "not a permutation"):
        reader(word)


def sandwiched_by(v, k, l):
    """The rectangle spanned by the graph points of the non-inversion <k, l>."""
    return {(i, j) for i in range(k, l + 1)
            for j in range(v[k - 1], v[l - 1] + 1)}


def sandwiched_cells(v, skip=0):
    """The graph of v and the cells sandwiched by non-inversions not through skip."""
    return permutation_graph(v).union(
        *(sandwiched_by(v, k, l) for (k, l) in non_inversions(v)
          if skip not in (k, l)))


def test_is_sandwiched():
    assert non_inversions(V2413) == [(1, 2), (1, 4), (3, 4)]
    off_graph = (cells_of(graph_of_upper_interval(V2413))
                 - permutation_graph(V2413))
    assert (1, 3) in off_graph & sandwiched_by(V2413, 1, 2)
    assert all((4, 4) not in sandwiched_by(V2413, k, l)
               for (k, l) in non_inversions(V2413))
    assert (4, 4) not in cells_of(graph_of_upper_interval(V2413))
    # the graph of [v, w0] is the graph of v plus every sandwiched cell
    for v in symmetric_group(4):
        assert cells_of(graph_of_upper_interval(v)) == sandwiched_cells(v)


def test_largest_square_examples():
    assert largest_square(graph_of_upper_interval(V2413)) == 2
    assert largest_square(graph_of_upper_interval(longest_element(4))) == 1
    assert largest_square(graph_of_upper_interval(identity(5))) == 5
    assert largest_square(grid(3, [])) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_squares_match_noninversions_exhaustive(n):
    assert all(squares_match_noninversions(v) for v in symmetric_group(n))


def test_squares_match_noninversions_on_the_empty_word():
    # The empty grid has no square, and no pair predicts one.
    assert largest_square(graph_of_upper_interval(())) == 0
    assert squares_match_noninversions(())


def gap_bound(v) -> int:
    """One plus the best min(j - i, v_j - v_i) over non-inversions, or 1."""
    return 1 + max((min(j - i, v[j - 1] - v[i - 1])
                    for (i, j) in non_inversions(v)), default=0)


@given(st.integers(8, 9).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple))
@settings(max_examples=200, deadline=None)
def test_predicted_square_matches_the_gap_oracle_at_8_and_9(v):
    # With the graph side pinned to the oracle's value, and then to one
    # more, the answer depends on the predicted side alone.
    bound = gap_bound(v)
    for side, expected in ((bound, True), (bound + 1, False)):
        with mock.patch("klimm.grid._square_side", return_value=side):
            assert squares_match_noninversions(v) is expected
    assert squares_match_noninversions(v)


def test_has_cell_is_false_outside_the_square():
    full = grid(3, [(i, j) for i in range(1, 4) for j in range(1, 4)])
    assert all(full.has_cell(i, j) for i in range(1, 4) for j in range(1, 4))
    for cell in ((1, -1), (1, -5), (1, 0), (1, 4), (-1, 1), (0, 1), (4, 1)):
        assert not full.has_cell(*cell)


def test_support_of_empty_grid():
    empty = grid(3, [])
    assert row_support(empty, 2) == frozenset()
    assert col_support(empty, 3) == frozenset()
    with pytest.raises(IndexError):
        row_support(empty, 4)


def test_admissibility_examples():
    G = graph_of_upper_interval(V2413)
    assert is_admissible(
        G, fixtures.ADMISSIBLE_ROW_LABELS, fixtures.ADMISSIBLE_COL_LABELS)
    assert not is_admissible(G, (1, 2, 2, 3), (1, 2, 2, 3))
    # identity labels are all distinct
    assert is_admissible(G, (1, 2, 3, 4), (1, 2, 3, 4))


def test_labels_must_be_weakly_increasing():
    with pytest.raises(ValueError, match="weakly increasing"):
        is_admissible(grid(3, []), (2, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="weakly increasing"):
        is_admissible(grid(3, []), (1, 2, 3), (1, 3, 2))


@pytest.mark.parametrize("R,C", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2, 3, 4))])
def test_labels_must_have_length_n(R, C):
    with pytest.raises(ValueError, match="length 3"):
        is_admissible(grid(3, []), R, C)


def test_delete_rows_cols_basics():
    G = graph_of_upper_interval(V2413)
    assert cells_of(delete_rows_cols(G, [], [])) == cells_of(G)
    with pytest.raises(ValueError):
        delete_rows_cols(G, [1], [])
    # order-preserving reindex of a single deletion
    reduced = delete_rows_cols(grid(4, [(1, 1), (3, 3), (4, 4)]), {2}, {2})
    assert cells_of(reduced) == frozenset({(1, 1), (2, 2), (3, 3)})


@pytest.mark.parametrize("function,args,error,message", [
    (as_multiset, ((2, 0), 3), ValueError,
     r"labels \(0, 2\) not all in \[1, 3\]"),
    (as_multiset, ((1, 4), 3), ValueError,
     r"labels \(1, 4\) not all in \[1, 3\]"),
    (as_multiset, ((2, 1.0), 3), ValueError,
     r"labels \(2, 1\.0\) are not all ints"),
    (as_multiset, ((2, True), 3), ValueError,
     r"labels \(2, True\) are not all ints"),
    (delete_rows_cols, (graph_of_upper_interval(V2413), {5}, {1}), IndexError,
     "deletion index out of range"),
    (delete_rows_cols, (graph_of_upper_interval(V2413), {1}, {0}), IndexError,
     "deletion index out of range"),
    (delete_rows_cols, (graph_of_upper_interval(V2413), {1.5}, {2}),
     ValueError, r"indices \(1\.5,\) are not all ints"),
    (delete_rows_cols, (graph_of_upper_interval(V2413), {1}, {True}),
     ValueError, r"indices \(True,\) are not all ints"),
    (delete_rows_cols, (graph_of_upper_interval(V2413), {"1"}, {2}),
     ValueError, r"indices \('1',\) are not all ints"),
    (young_diagram_grid, ((1, 1, 1, 1), 3), ValueError,
     r"partition \(1, 1, 1, 1\) has more than 3 parts"),
    (young_diagram_grid, ((4,), 3), ValueError,
     r"partition \(4,\) does not fit in a 3x3 box"),
    (young_diagram_grid, ((1.5,), 2), ValueError,
     r"parts \(1\.5,\) are not all ints"),
    (young_diagram_grid, ((2.0, 1), 2), ValueError,
     r"parts \(2\.0, 1\) are not all ints"),
    (young_diagram_grid, ((True,), 2), ValueError,
     r"parts \(True,\) are not all ints"),
    (young_complement_grid, ((1.5,), 2), ValueError,
     r"parts \(1\.5,\) are not all ints"),
    (young_complement_grid, ((2.0, 1), 2), ValueError,
     r"parts \(2\.0, 1\) are not all ints"),
    (young_complement_grid, ((True,), 2), ValueError,
     r"parts \(True,\) are not all ints"),
], ids=["label-below", "label-above", "label-float", "label-bool",
        "row-index", "column-index", "index-float", "index-bool",
        "index-str", "too-many-parts", "part-too-large",
        "young-part-float", "young-parts-float", "young-part-bool",
        "complement-part-float", "complement-parts-float",
        "complement-part-bool"])
def test_out_of_range_arguments_are_rejected(function, args, error, message):
    with pytest.raises(error, match=message):
        function(*args)


def test_deletion_composes():
    G = graph_of_upper_interval((5, 2, 6, 4, 1, 3))
    both = delete_rows_cols(G, {2, 5}, {1, 4})
    step1 = delete_rows_cols(G, {2}, {1})
    # after deleting row 2, old row 5 sits at position 4; same for columns
    step2 = delete_rows_cols(step1, {4}, {3})
    assert both == step2


def test_bounding_boxes_worked_example():
    boxes = bounding_boxes(fixtures.BOX_COLORING_WORD)
    assert tuple(b.color for b in boxes) == fixtures.BOX_COLORING_COLORS
    assert spanning_corners(fixtures.BOX_COLORING_WORD) == \
        fixtures.BOX_COLORING_CORNERS
    purple = boxes[-1]
    assert len(purple.corners) == 2


def _bounding_boxes_by_pairwise_containment(v):
    """Oracle: extents from the four corners, then a test of every pair."""
    n = len(v)
    extents = {}
    for i, vi in enumerate(v, start=1):
        r2, c2 = n - vi + 1, n - i + 1
        ext = ((min(i, r2), max(i, r2)), (min(vi, c2), max(vi, c2)))
        extents.setdefault(ext, []).append((i, vi))
    regions = list(extents.items())
    maximal = []
    for ext, corners in regions:
        if any(other != ext
               and other[0][0] <= ext[0][0] and ext[0][1] <= other[0][1]
               and other[1][0] <= ext[1][0] and ext[1][1] <= other[1][1]
               for other, _ in regions):
            continue
        sides = {(-1 if i + j < n + 1 else (1 if i + j > n + 1 else 0))
                 for (i, j) in corners}
        color = {frozenset({-1}): "blue", frozenset({1}): "red",
                 frozenset({0}): "green"}.get(frozenset(sides), "purple")
        maximal.append(BoundingBox(ext[0], ext[1], tuple(sorted(corners)),
                                   color))
    return sorted(maximal, key=lambda b: b.rows[0])


@pytest.mark.parametrize("n", range(1, 8))
def test_bounding_boxes_match_pairwise_containment(n):
    for v in symmetric_group(n):
        assert bounding_boxes(v) == _bounding_boxes_by_pairwise_containment(v)


def test_bounding_boxes_longest_element():
    for box in bounding_boxes(longest_element(5)):
        assert box.color == "green"
        assert box.rows[0] == box.rows[1] and box.cols[0] == box.cols[1]


def cells_of_boxes(boxes):
    return {(i, j) for box in boxes
            for i in range(box.rows[0], box.rows[1] + 1)
            for j in range(box.cols[0], box.cols[1] + 1)}


@pytest.mark.parametrize("n", range(1, 7))
def test_boxes_cover_interval_graph(n):
    for v in symmetric_group(n):
        assert cells_of(graph_of_upper_interval(v)) <= \
            cells_of_boxes(bounding_boxes(v))
        assert boxes_cover_interval_graph(v)


# The sweeps run these kernels over S_7 and beyond; at n = 8 each is
# checked against an oracle that shares none of its code.
perms_of_8 = st.permutations(list(range(1, 9))).map(tuple)


@given(perms_of_8, st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_interval_rows_match_the_sandwiched_cells_at_8(v, skip):
    rows = _upper_interval_rows(v, skip)
    assert rows == grid(8, sandwiched_cells(v, skip)).rows
    if skip:
        assert rows == grid(8, sandwiched_cells(v)
                            - cells_sandwiched_only_by(v, skip)).rows


@given(perms_of_8)
@settings(max_examples=200, deadline=None)
def test_bounding_boxes_match_pairwise_containment_at_8(v):
    assert bounding_boxes(v) == _bounding_boxes_by_pairwise_containment(v)


@given(perms_of_8)
@settings(max_examples=100, deadline=None)
def test_boxes_cover_matches_the_cell_set_cover_at_8(v):
    covered = sandwiched_cells(v) <= cells_of_boxes(
        _bounding_boxes_by_pairwise_containment(v))
    assert boxes_cover_interval_graph(v) == covered


def planted_defects(spans):
    """The (lo, hi, color) records with each box dropped in turn, then with
    each box's bottom row (and so its leftmost column) taken off."""
    for k, (lo, hi, color) in enumerate(spans):
        yield spans[:k] + spans[k + 1:]
        yield spans[:k] + [(lo, hi - 1, color)] + spans[k + 1:]


def assert_cover_matches_the_cells_of_planted_boxes(v):
    # The lemma holds for every v, so a kernel that always said yes would
    # pass on the true boxes; on planted ones some covers must fail.
    n = len(v)
    graph = sandwiched_cells(v)
    verdicts = set()
    for planted in planted_defects(_maximal_spans(v)):
        cells = {(i, j) for lo, hi, _ in planted for i in range(lo, hi + 1)
                 for j in range(n + 1 - hi, n + 2 - lo)}
        covered = graph <= cells
        with mock.patch("klimm.grid._maximal_spans", return_value=planted):
            assert _boxes_cover_interval_graph(v) == covered
        verdicts.add(covered)
    return verdicts


@pytest.mark.parametrize("n", range(1, 7))
def test_boxes_cover_matches_the_cell_set_cover_under_planted_defects(n):
    verdicts = set()
    for v in symmetric_group(n):
        verdicts |= assert_cover_matches_the_cells_of_planted_boxes(v)
    assert False in verdicts


@given(st.one_of(st.permutations(list(range(1, 8))).map(tuple), perms_of_8))
@settings(max_examples=100, deadline=None)
def test_boxes_cover_matches_the_cell_set_cover_under_planted_defects_at_7_and_8(
        v):
    assert_cover_matches_the_cells_of_planted_boxes(v)


@pytest.mark.parametrize("reader", [graph_of_upper_interval, bounding_boxes],
                         ids=["graph_of_upper_interval", "bounding_boxes"])
def test_grid_readers_read_an_iterator_as_its_tuple(reader):
    for n in range(1, 6):
        for v in symmetric_group(n):
            assert reader(iter(v)) == reader(v)
    for word in [(True, 2), (1.0, 2), (1, 2.0), (True, 3, 2)]:
        with pytest.raises(ValueError, match="not a permutation"):
            reader(iter(word))


def assert_kernels_match_their_wrappers(v):
    assert _squares_match_noninversions(v) == squares_match_noninversions(
        list(v))
    assert _boxes_cover_interval_graph(v) == boxes_cover_interval_graph(
        list(v))
    try:
        alternate = boxes_alternate(list(v))
    except PreconditionError:
        assert not _alternation_applies(v)
    else:
        assert _alternation_applies(v) and _boxes_alternate(v) == alternate


@pytest.mark.parametrize("n", range(1, 8))
def test_sweep_kernels_match_their_checking_wrappers(n):
    # The sweeps call the kernels, on their own words, and test the
    # hypotheses of Prop. 2.17 as a predicate, where the wrappers check
    # the word and raise on a failed hypothesis.
    applies = 0
    for v in symmetric_group(n):
        assert_kernels_match_their_wrappers(v)
        applies += _alternation_applies(v)
    assert applies == {1: 1, 2: 1, 3: 3, 4: 12, 5: 56, 6: 289, 7: 1603}[n]


@given(st.integers(8, 9).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple))
@settings(max_examples=200, deadline=None)
def test_sweep_kernels_match_their_checking_wrappers_at_8_and_9(v):
    assert_kernels_match_their_wrappers(v)


def test_interval_row_cache_is_bounded():
    # Past S_7 the sweeps' rows would fill memory: over S_8 the cache
    # keeps at most maxsize entries, which hold all of S_1..S_7.
    maxsize = _upper_interval_rows.cache_info().maxsize
    assert 1 + 2 + 6 + 24 + 120 + 720 + 5040 <= maxsize
    for v in symmetric_group(8):
        _upper_interval_rows(v)
    assert _upper_interval_rows.cache_info().currsize <= maxsize


def test_alternation_preconditions():
    with pytest.raises(PreconditionError, match=re.escape(
            "w0 * 6,10,4,7,8,9,5,3,1,2 lies in a maximal parabolic")):
        boxes_alternate(fixtures.BOX_COLORING_WORD)
    with pytest.raises(PatternPreconditionError,
                       match="^2143 contains the pattern 2143$"):
        boxes_alternate((2, 1, 4, 3))
    with pytest.raises(PreconditionError,
                       match=re.escape("w0 * 21 lies in a maximal parabolic")):
        boxes_alternate((2, 1))  # w0*v = id sits inside a parabolic
    assert boxes_alternate(identity(2))  # single box, vacuously true


def is_young_shaped_by_partitions(P) -> bool:
    """Oracle for ``is_young_shaped``: some partition builds P."""
    return bool(young_shapes(P, young_diagram_grid)
                or young_shapes(P, young_complement_grid))


def test_young_shape_recognition():
    G = graph_of_upper_interval
    assert young_shapes(G(identity(3)), young_diagram_grid) == [(3, 3, 3)]
    assert young_shapes(G((1, 3, 2)), young_diagram_grid) == [(3, 3, 2)]
    assert young_shapes(G(longest_element(3)), young_diagram_grid) == []
    assert young_shapes(G((2, 1, 4, 3)), young_diagram_grid) == []
    assert young_shapes(G((2, 1, 3)), young_complement_grid) == [(1, 0, 0)]
    assert young_shapes(G(longest_element(3)), young_complement_grid) == []
    for v in symmetric_group(4):
        assert is_young_shaped(G(v)) == is_young_shaped_by_partitions(G(v)), v
    assert is_young_shaped(G(identity(4)))
    assert not is_young_shaped(G((2, 4, 1, 3)))


@pytest.mark.parametrize("n", [2, 3])
def test_young_shape_test_matches_the_partition_oracle(n):
    # Every subset of the n x n box (at n = 1 both subsets are shaped).
    grids = [Grid(n, rows) for rows in itertools.product(
        range(0, 2 << n, 2), repeat=n)]
    shaped = [is_young_shaped(P) for P in grids]
    assert shaped == [is_young_shaped_by_partitions(P) for P in grids]
    assert 0 < sum(shaped) < len(grids)


def test_young_grids_and_durfee():
    assert durfee((3, 3, 1)) == 2
    assert durfee(()) == 0
    assert durfee((5, 5, 5, 5, 5)) == 5
    shape = young_diagram_grid((3, 1), 3)
    assert cells_of(shape) == frozenset({(1, 1), (1, 2), (1, 3), (2, 1)})
    comp = young_complement_grid((3, 1), 3)
    assert cells_of(comp) == frozenset({(2, 2), (2, 3), (3, 1), (3, 2), (3, 3)})
    assert cells_of(young_diagram_grid((3, 3, 1), 3)) == frozenset(
        {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)})
    assert cells_of(young_complement_grid((2, 1), 3)) == frozenset(
        {(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)})
    with pytest.raises(ValueError):
        young_diagram_grid((1, 3), 3)  # not weakly decreasing


def test_block_split_worked_example():
    G = graph_of_upper_interval(fixtures.BLOCK_SPLIT_WORD)
    j, upper, lower = block_antidiagonal_split(G)
    assert j == fixtures.BLOCK_SPLIT_J
    assert cells_of(upper) == \
        cells_of(graph_of_upper_interval(fixtures.BLOCK_SPLIT_UPPER))
    assert cells_of(lower) == \
        cells_of(graph_of_upper_interval(fixtures.BLOCK_SPLIT_LOWER))


def test_block_split_extremes():
    assert block_antidiagonal_split(graph_of_upper_interval(identity(4))) is None
    j, upper, lower = block_antidiagonal_split(
        graph_of_upper_interval(longest_element(4)))
    assert j == 1 and upper.n == 3 and lower.n == 1


def test_deletion_grid_identities():
    v = fixtures.DELETION_WORD
    i = fixtures.DELETION_POSITION
    assert delete_entry(v, i) == fixtures.DELETION_RESULT
    assert (i, v[i - 1]) in spanning_corners(v)
    assert cells_sandwiched_only_by(v, i)  # the pruned region is nonempty
    assert deletion_pruned_grid_identity(v, i)


@pytest.mark.parametrize("n", range(2, 6))
def test_deletion_pruned_identity_exhaustive(n):
    for v in symmetric_group(n):
        for i in range(1, n + 1):
            assert deletion_pruned_grid_identity(v, i)


def pruned_oracle(v, i):
    """The interval graph less the cells sandwiched only through i."""
    return grid(len(v), cells_of(graph_of_upper_interval(v))
                - cells_sandwiched_only_by(v, i)).rows


@pytest.mark.parametrize("n", range(1, 7))
def test_pruned_rows_match_the_sandwiched_only_cells(n):
    for v in symmetric_group(n):
        for i in range(1, n + 1):
            assert _upper_interval_rows(v, i) == pruned_oracle(v, i)


@given(st.permutations(list(range(1, 8))), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_pruned_rows_match_the_sandwiched_only_cells_at_7(v, i):
    assert _upper_interval_rows(tuple(v), i) == pruned_oracle(tuple(v), i)


def test_label_patterns():
    assert label_patterns(3, 3) == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3)]
    assert len(label_patterns(4, 4)) == 8
    assert label_patterns(4, 1) == [(1, 1, 1, 1)]
    # Oracle: every weakly increasing tuple over [m], its distinct labels
    # renamed 1, 2, ... in order.
    for n, m in itertools.product(range(1, 7), range(8)):
        canonical = {
            tuple(sorted(set(labels)).index(x) + 1 for x in labels)
            for labels in itertools.combinations_with_replacement(
                range(1, m + 1), n)}
        assert label_patterns(n, m) == sorted(canonical)


def from_doc(doc):
    # A grid document carries all that grid() needs to rebuild the grid.
    return grid(doc["n"], doc["cells"])


def test_grid_doc_round_trip():
    G = graph_of_upper_interval(V2413)
    doc = G.to_doc()
    assert from_doc(doc) == G
    # The documented format keeps its label lists, always the identity.
    assert doc["row_labels"] == doc["col_labels"] == [1, 2, 3, 4]


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=60, deadline=None)
def test_graph_contains_both_endpoints(v):
    v = tuple(v)
    cells = cells_of(graph_of_upper_interval(v))
    assert permutation_graph(v) <= cells
    assert permutation_graph(longest_element(5)) <= cells


# ---------------------------------------------------------------------------
# The row-mask grid against the cell-set code it replaced, kept as oracles.


def square_dp_oracle(P):
    """Largest full square by the classic dynamic program over cells."""
    cells = cells_of(P)
    best = 0
    prev = [0] * (P.n + 1)
    for i in range(1, P.n + 1):
        current = [0] * (P.n + 1)
        for j in range(1, P.n + 1):
            if (i, j) in cells:
                current[j] = 1 + min(prev[j], current[j - 1], prev[j - 1])
                best = max(best, current[j])
        prev = current
    return best


def delete_oracle(P, I, J):
    """Row/column deletion by order-preserving maps on the cell set."""
    row_map = {old: new for new, old in enumerate(
        (i for i in range(1, P.n + 1) if i not in I), start=1)}
    col_map = {old: new for new, old in enumerate(
        (j for j in range(1, P.n + 1) if j not in J), start=1)}
    return grid(P.n - len(I),
                [(row_map[i], col_map[j]) for (i, j) in cells_of(P)
                 if i in row_map and j in col_map])


def block_split_oracle(P):
    """Block-antidiagonal split by testing and shifting every cell."""
    n, cells = P.n, cells_of(P)
    for j in range(1, n):
        s = n - j
        if all((r <= s and c > j) or (r > s and c <= j) for (r, c) in cells):
            upper = grid(s, [(r, c - j) for (r, c) in cells if r <= s])
            lower = grid(j, [(r - s, c) for (r, c) in cells if r > s])
            return j, upper, lower
    return None


def labels(n):
    return st.lists(st.integers(1, 9), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs)))


@st.composite
def grids(draw, max_n=7):
    """Arbitrary cell sets in [n]^2 (empty and full included)."""
    n = draw(st.integers(1, max_n))
    square = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    cells = draw(st.one_of(st.just(()), st.just(square),
                           st.sets(st.sampled_from(square))))
    return grid(n, cells)


@st.composite
def labeled_grids(draw):
    """A grid and, drawn apart from it, random row and column labels."""
    P = draw(grids())
    return P, draw(labels(P.n)), draw(labels(P.n))


@st.composite
def near_block_grids(draw):
    """Cells inside the two blocks of a split at j, plus at most one stray."""
    n = draw(st.integers(2, 7))
    j = draw(st.integers(1, n - 1))
    square = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    blocks = [(r, c) for (r, c) in square if (r <= n - j) == (c > j)]
    cells = draw(st.sets(st.sampled_from(blocks)))
    stray = draw(st.sets(st.sampled_from(square), max_size=1))
    return grid(n, cells | stray)


@given(grids(max_n=9))
@settings(max_examples=300, deadline=None)
def test_largest_square_matches_the_cell_dp(P):
    assert largest_square(P) == square_dp_oracle(P)


def row_boundary_grids():
    """
    Cells on both sides of the boundary between two rows, where the packed
    rows of largest_square meet: (i, n) with (i + 1, 1), a column-n pair
    beside a column-1 pair one row lower, and 2x2 blocks in the last or
    first two columns, alone and with a 2x2 block across the boundary.
    """
    for n in range(2, 10):
        for i in range(1, n):
            last = [(i, n - 1), (i, n), (i + 1, n - 1), (i + 1, n)]
            first = [(i, 1), (i, 2), (i + 1, 1), (i + 1, 2)]
            yield grid(n, [(i, n), (i + 1, 1)])
            yield grid(n, last)
            yield grid(n, first)
            if i + 2 <= n:
                yield grid(n, [(i, n), (i + 1, n), (i + 1, 1), (i + 2, 1)])
                yield grid(n, last + [(r + 1, c) for r, c in first])


def test_largest_square_at_the_row_boundary():
    for P in row_boundary_grids():
        assert largest_square(P) == square_dp_oracle(P), P


@pytest.mark.parametrize("n", range(1, 10))
def test_largest_square_of_empty_and_full_grids(n):
    square = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    assert largest_square(grid(n, [])) == 0
    assert largest_square(grid(n, square)) == n


@given(grids(), st.data())
@settings(max_examples=300, deadline=None)
def test_delete_rows_cols_matches_the_cell_reindex(P, data):
    count = data.draw(st.integers(0, P.n))
    I = data.draw(st.sets(st.integers(1, P.n), min_size=count, max_size=count))
    J = data.draw(st.sets(st.integers(1, P.n), min_size=count, max_size=count))
    assert delete_rows_cols(P, I, J) == delete_oracle(P, I, J)


@given(st.one_of(grids(), near_block_grids()))
@settings(max_examples=400, deadline=None)
def test_block_split_matches_the_cell_test(P):
    assert block_antidiagonal_split(P) == block_split_oracle(P)


def admissible_by_supports(P, R, C):
    """Admissibility by distinct (label, support set) pairs, rows and columns."""
    return all(
        len({(labels[idx - 1], support(P, idx))
             for idx in range(1, P.n + 1)}) == P.n
        for labels, support in ((R, row_support), (C, col_support)))


@given(labeled_grids())
@settings(max_examples=200, deadline=None)
def test_is_admissible_matches_the_support_sets(labeled):
    assert is_admissible(*labeled) == admissible_by_supports(*labeled)


@pytest.mark.parametrize("n", range(1, 5))
def test_is_admissible_matches_the_support_sets_on_interval_graphs(n):
    # Equal labels on equal rows or columns are common here, so both
    # answers occur.
    patterns = label_patterns(n, n)
    outcomes = set()
    for v in symmetric_group(n):
        P = graph_of_upper_interval(v)
        for R in patterns:
            for C in patterns:
                outcomes.add(is_admissible(P, R, C))
                assert is_admissible(P, R, C) == admissible_by_supports(P, R, C)
    assert outcomes == ({True} if n == 1 else {True, False})


@given(grids())
@settings(max_examples=100, deadline=None)
def test_grid_doc_round_trip_arbitrary(P):
    assert from_doc(json.loads(json.dumps(P.to_doc()))) == P
    assert grid(P.n, cells_of(P)) == P


@pytest.mark.parametrize("rows", [
    (0b0011, 0, 0),  # bit 0 is no column
    (0, 0b10000, 0),  # bit n + 1 lies past column n
    (-2, 0, 0),
    (0b10, 0b10),  # too few rows
    (0b10, 0b10, 0b10, 0b10),  # too many rows
    [0b10, 0b10, 0b10],  # a list would make the grid mutable and unhashable
])
def test_labeled_grid_rejects_malformed_rows(rows):
    with pytest.raises(ValueError):
        Grid(3, rows)


@pytest.mark.parametrize("n", [True, False, 2.0, 0.0])
def test_grid_and_young_builders_reject_a_size_that_is_not_an_int(n):
    # True equals 1 and 2.0 equals 2, yet neither is a grid size.
    with pytest.raises(ValueError, match="n an int"):
        Grid(n, (0,) * int(n))
    for build in (young_diagram_grid, young_complement_grid):
        with pytest.raises(ValueError, match=f"grid size {n!r} is not an int"):
            build((1,), n)


def test_grid_rejects_cells_outside_the_square():
    for cell in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match="outside"):
            grid(3, [cell])
