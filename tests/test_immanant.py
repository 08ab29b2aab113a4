import functools
import math
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EDGE_MATRICES,
    antidiagonal_transpose,
    bar,
    cells_of,
    durfee,
    from_rows,
    identity_matrix,
    kl_at_one,
    non_inversions,
    per_w_terms,
    random_rational_matrix,
    square_matrices,
    young_shapes,
    zero_matrix,
)
import fixtures
from kl_every_candidate import Oracle, pairs_of
from kl_via_r import kl_table_via_r
from klimm import exactmat
from klimm.errors import (
    PatternPreconditionError,
    PreconditionError,
    ShapeError,
    SizeGuardError,
    SizeMismatchError,
)
from klimm.exactmat import (
    Matrix,
    det,
    gen_totally_positive,
    is_k_positive,
    repeat_submatrix,
    restrict,
)
from klimm.grid import (
    FORBIDDEN_PATTERNS,
    as_multiset,
    graph_of_upper_interval,
    is_admissible,
    largest_square,
    young_complement_grid,
    young_diagram_grid,
)
from klimm.immanant import (
    deletion_det_identity,
    dual_canonical_eval,
    factor_block_antidiagonal,
    imm_definition,
    imm_determinantal,
    lewis_carroll_sign_probe,
    obeys_sign_law,
    SignProbeReport,
    young_sign_law,
)
from klimm.klpoly import ZERO, KLCache, imm_terms
from klimm.perm import (
    avoids,
    bruhat_leq,
    compose,
    identity,
    length,
    longest_element,
    symmetric_group,
)
from klimm.suites import _partitions_in_box

FIXTURE = fixtures.TWO_POSITIVE_NOT_THREE


def qualifying(n):
    return [v for v in symmetric_group(n) if avoids(v, *FORBIDDEN_PATTERNS)]


def test_definition_worked_example(kl_cache_s4):
    assert imm_definition((2, 4, 1, 3), FIXTURE, kl_cache_s4) == \
        fixtures.IMMANANT_2413_VALUE


def test_definition_extremes(kl_cache_s4):
    assert imm_definition(identity(4), FIXTURE, kl_cache_s4) == det(FIXTURE)
    w0 = longest_element(4)
    assert imm_definition(w0, FIXTURE, kl_cache_s4) == \
        prod(FIXTURE.entries[i][3 - i] for i in range(4))
    with pytest.raises(ShapeError):
        imm_definition((1, 2), FIXTURE, kl_cache_s4)
    with pytest.raises(SizeGuardError):
        imm_definition(identity(8), identity_matrix(8))
    with pytest.raises(ValueError):
        imm_definition((1, 1, 3), identity_matrix(3))


def test_defining_sum_refuses_a_cache_for_another_size(kl_cache_s4):
    with pytest.raises(SizeMismatchError):
        imm_definition((2, 1, 3), identity_matrix(3), kl_cache_s4)
    cache = KLCache(5)
    with pytest.raises(SizeMismatchError):
        dual_canonical_eval((2, 4, 1, 3), (1, 2, 3, 4), (1, 2, 3, 4),
                            FIXTURE, method="definition", cache=cache)
    assert len(cache) == 0


@pytest.mark.parametrize("v,error", [
    # 4.0 hashes like 4, so a table lookup alone would take it.
    ((2, 1, 3, 4.0), ValueError),
    ((2, 1, 4, 4), ValueError),
    ((2, 1, 3), SizeMismatchError),
])
def test_signed_terms_validate_the_word_and_its_size(v, error):
    cache = KLCache(4)
    with pytest.raises(error):
        imm_terms(v, cache)
    assert cache.stats() == {"n": 4, "entries": 0, "hits": 0, "misses": 0}


def test_definition_support_rule_matches_unpruned_sum(kl_cache_s4):
    # Summing over all of S_n with the raw Kazhdan-Lusztig values (zero
    # for incomparable pairs) gives the same number as the pruned sum.
    rng = random.Random(12)
    w0 = longest_element(4)
    for v in [(2, 4, 1, 3), (1, 3, 2, 4), (2, 1, 4, 3)]:
        M = random_rational_matrix(4, rng)
        unpruned = Fraction(0)
        for w in symmetric_group(4):
            coeff = kl_at_one(compose(w0, w), compose(w0, v), kl_cache_s4)
            sign = -1 if (length(w) - length(v)) % 2 else 1
            unpruned += sign * coeff * prod(
                M.entries[i][w[i] - 1] for i in range(4))
        assert unpruned == imm_definition(v, M, kl_cache_s4)
        # and the support is exactly the upper interval
        for w in symmetric_group(4):
            vanishes = kl_at_one(compose(w0, w), compose(w0, v),
                                 kl_cache_s4) == 0
            assert vanishes == (not bruhat_leq(v, w))


@functools.lru_cache(maxsize=None)
def _unpruned_weights(v):
    """
    (w, (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1)) for every w in S_n, with the
    Kazhdan-Lusztig values of the R-polynomial route (the table behind
    kl_polynomial_via_r): neither the Bruhat table nor the recursion.
    """
    n = len(v)
    w0 = longest_element(n)
    values = kl_table_via_r(compose(w0, v))
    return [(w, (-1 if (length(w) - length(v)) % 2 else 1)
             * values.get(compose(w0, w), ZERO)(1))
            for w in symmetric_group(n)]


def _unpruned_definition(v, M):
    return sum((weight * prod(row[x - 1] for row, x in zip(M.entries, w))
                for w, weight in _unpruned_weights(v)), Fraction(0))


@given(st.integers(1, 4).flatmap(square_matrices))
@settings(max_examples=30, deadline=None)
def test_defining_sum_matches_the_unpruned_sum_for_every_v_up_to_s4(M):
    for v in symmetric_group(M.rows):
        assert imm_definition(v, M) == _unpruned_definition(v, M)


@given(st.permutations(list(range(1, 6))).map(tuple), square_matrices(5))
@settings(max_examples=60, deadline=None)
def test_defining_sum_matches_the_unpruned_sum_on_s5(v, M):
    assert imm_definition(v, M) == _unpruned_definition(v, M)


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_defining_sum_matches_the_unpruned_sum_on_edge_matrices(name):
    M = EDGE_MATRICES[name]
    for v in symmetric_group(M.rows):
        assert imm_definition(v, M) == _unpruned_definition(v, M)


def _per_w_definition(v, M, cache):
    """The defining sum over :func:`per_w_terms`."""
    perms = cache.table.perms
    return sum(c * prod(row[j - 1] for row, j in zip(M.entries, perms[k]))
               for k, c in per_w_terms(v, cache))


@pytest.mark.parametrize("n", [4, 5])
def test_defining_sum_counts_like_one_kl_at_call_per_w(n):
    # Cold: each v on a fresh cache and a fresh oracle store, so every
    # miss and hit of the walk shows, for the terms alone and for the sum.
    # Warm: the store holds the whole row, so each walk adds one hit per
    # x < y and nothing else.
    rng = random.Random(n)
    warm = KLCache(n)
    table = warm.table
    for v in symmetric_group(n):
        M = random_rational_matrix(n, rng)
        fast, slow = KLCache(n), Oracle(n)
        assert sorted(imm_terms(v, fast)) == sorted(per_w_terms(v, slow))
        assert fast.stats() == slow.stats()
        assert pairs_of(fast) == slow.values
        fast, slow = KLCache(n), Oracle(n)
        assert imm_definition(v, M, fast) == _per_w_definition(v, M, slow)
        assert fast.stats() == slow.stats()
        assert pairs_of(fast) == slow.values
        imm_definition(v, M, warm)
        y = len(table.perms) - 1 - table.index[v]
        for walk in (lambda: imm_terms(v, warm),
                     lambda: imm_definition(v, M, warm)):
            before = warm.stats()
            walk()
            assert warm.stats() == dict(
                before, hits=before["hits"] + table.below[y].bit_count() - 1)
        assert imm_definition(v, M, warm) == _per_w_definition(v, M, slow)


def test_one_prop31_case_clears_its_matrix_once(monkeypatch):
    # Both sides of a case read M's one integer form: one lcm per row.
    calls = []
    monkeypatch.setattr(exactmat, "lcm",
                        lambda *dens: calls.append(dens) or math.lcm(*dens))
    v, M = (2, 4, 1, 3), random_rational_matrix(4, random.Random(26))
    assert imm_definition(v, M) == imm_determinantal(v, M)
    assert len(calls) == 4


def test_a_lewis_carroll_residual_clears_its_matrix_once(monkeypatch):
    # det(M) and the five minors read M's one integer form.
    calls = []
    monkeypatch.setattr(exactmat, "lcm",
                        lambda *dens: calls.append(dens) or math.lcm(*dens))
    M = random_rational_matrix(4, random.Random(28))
    assert exactmat.lewis_carroll_residual(M, 1, 3, 2, 4) == 0
    assert len(calls) == 4


def test_both_routes_at_sizes_0_and_1():
    for v, M, value in (((), Matrix(()), 1),
                        ((1,), EDGE_MATRICES["1x1"], Fraction(-7, 3))):
        labels = tuple(range(1, len(v) + 1))
        for method, direct in (("definition", imm_definition),
                               ("determinantal", imm_determinantal)):
            for result in (direct(v, M), dual_canonical_eval(
                    v, labels, labels, M, method).value):
                assert type(result) is Fraction and result == value


def test_determinantal_worked_example():
    assert imm_determinantal((2, 4, 1, 3), FIXTURE) == \
        fixtures.IMMANANT_2413_VALUE
    assert det(fixtures.RESTRICTED_TO_2413_GRAPH) == -39


def test_determinantal_extremes():
    assert imm_determinantal(identity(4), FIXTURE) == det(FIXTURE)
    w0 = longest_element(4)
    assert imm_determinantal(w0, FIXTURE) == \
        prod(FIXTURE.entries[i][3 - i] for i in range(4))


@pytest.mark.parametrize("bad", [(1, 3, 2, 4), (2, 1, 4, 3),
                                 (5, 1, 3, 2, 4), (2, 1, 5, 4, 3)])
def test_determinantal_pattern_precondition(bad):
    with pytest.raises(PatternPreconditionError):
        imm_determinantal(bad, identity_matrix(len(bad)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_equivalence_exhaustive(n, kl_cache_s4):
    rng = random.Random(100 + n)
    cache = kl_cache_s4 if n == 4 else KLCache(n)
    for v in qualifying(n):
        for _ in range(3):
            M = random_rational_matrix(n, rng)
            assert imm_definition(v, M, cache) == imm_determinantal(v, M)


def test_pattern_condition_completeness_witnesses(kl_cache_s4):
    # For the two S_4 words that fail the pattern condition, search for a
    # matrix separating the defining sum from the determinantal formula.
    rng = random.Random(9)
    budget = 10
    for v in [(1, 3, 2, 4), (2, 1, 4, 3)]:
        found = False
        for _ in range(budget):
            M = random_rational_matrix(4, rng)
            sign = -1 if length(v) % 2 else 1
            formula = sign * det(restrict(M, graph_of_upper_interval(v)))
            if imm_definition(v, M, kl_cache_s4) != formula:
                found = True
                break
        # Report-style check: a witness should show up essentially at once.
        assert found, f"no separating matrix found for {v} in {budget} tries"


def test_dual_canonical_eval_worked_examples(kl_cache_s4):
    result = dual_canonical_eval((2, 4, 1, 3), (1, 2, 3, 4), (1, 2, 3, 4),
                                 FIXTURE)
    assert result.value == 39
    assert result.admissible and result.largest_square == 2
    assert result.length_v == 3
    assert result.to_doc()["value"] == "39"

    inadmissible = dual_canonical_eval((2, 4, 1, 3), (1, 2, 2, 3),
                                       (1, 2, 2, 3), FIXTURE)
    assert inadmissible.value == 0 and not inadmissible.admissible

    equal_rows = dual_canonical_eval((1, 2), (1, 1), (1, 2), FIXTURE)
    assert equal_rows.value == 0

    by_def = dual_canonical_eval((2, 4, 1, 3), (1, 2, 3, 4), (1, 2, 3, 4),
                                 FIXTURE, method="definition", cache=kl_cache_s4)
    assert by_def.value == 39 and by_def.method == "definition"

    with pytest.raises(ValueError):
        dual_canonical_eval((2, 1), (1, 2), (1, 2), FIXTURE, method="nope")
    with pytest.raises(ShapeError):
        dual_canonical_eval((2, 1), (1, 2, 3), (1, 2, 3), FIXTURE)


@pytest.mark.parametrize("label", [1.0, True], ids=["float", "bool"])
def test_labels_that_are_not_ints_are_rejected(label):
    # As in a permutation word, a float or a bool is no label, even where
    # it compares or indexes like the int it equals.
    T = gen_totally_positive(4, seed=2)
    P = young_diagram_grid((4, 4, 4, 4), 4)
    R, C = (1, 2, 2, 3), (1, 1, 2, 2)
    bad = (label, 2, 2, 3)
    for call in (lambda R, C: dual_canonical_eval((2, 4, 1, 3), R, C, T),
                 lambda R, C: young_sign_law(P, R, C, T),
                 lambda R, C: lewis_carroll_sign_probe((2, 4, 1, 3), R, C, T),
                 lambda R, C: repeat_submatrix(T, R, C)):
        call(R, C)
        for labels in ((bad, C), (R, bad)):
            with pytest.raises(ValueError, match="not all ints"):
                call(*labels)


@pytest.mark.parametrize("function,args,message", [
    (dual_canonical_eval, ((2, 1), (1, 2), (1, 2), zero_matrix(2, 3)),
     "matrix is 2x3, not square"),
    (imm_definition, ((2, 1), zero_matrix(2, 3)),
     "matrix is 2x3, expected 2x2"),
    (imm_determinantal, ((2, 1), identity_matrix(3)),
     "matrix is 3x3, expected 2x2"),
    (factor_block_antidiagonal, ((2, 1), zero_matrix(3, 2)),
     "matrix is 3x2, expected 2x2"),
    (deletion_det_identity, ((2, 1), 1, identity_matrix(2)),
     "matrix is 2x2, expected 1x1"),
], ids=["not-square", "definition", "determinantal", "block", "deletion"])
def test_matrix_shape_is_checked_with_its_message(function, args, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        function(*args)


def test_dual_canonical_eval_repeated_labels_match_definition(kl_cache_s4):
    # Repeated labels change the matrix, not the machinery: both routes
    # must agree on the repeated-entry matrix as well.
    rng = random.Random(77)
    for R, C in [((1, 1, 2, 3), (1, 2, 3, 4)), ((1, 2, 2, 4), (2, 3, 3, 4))]:
        M = random_rational_matrix(4, rng)
        a = dual_canonical_eval((2, 4, 1, 3), R, C, M, "determinantal")
        b = dual_canonical_eval((2, 4, 1, 3), R, C, M, "definition",
                                kl_cache_s4)
        assert a.value == b.value


def test_block_factorization_worked_example():
    rng = random.Random(4)
    v = fixtures.BLOCK_SPLIT_WORD
    for _ in range(3):
        M = random_rational_matrix(8, rng)
        assert factor_block_antidiagonal(v, M) == imm_determinantal(v, M)


def test_block_factorization_small_cases():
    M = from_rows([[1, 2], [3, 4]])
    assert factor_block_antidiagonal((2, 1), M) == 2 * 3
    w0 = longest_element(4)
    assert factor_block_antidiagonal(w0, FIXTURE) == \
        imm_determinantal(w0, FIXTURE)
    with pytest.raises(PreconditionError):
        factor_block_antidiagonal(identity(4), FIXTURE)  # full grid, no split


def test_deletion_identity_worked_example():
    rng = random.Random(8)
    v = fixtures.DELETION_WORD
    for _ in range(2):
        M = random_rational_matrix(7, rng)
        assert deletion_det_identity(v, fixtures.DELETION_POSITION, M)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deletion_identity_exhaustive(n):
    rng = random.Random(20 + n)
    for v in qualifying(n):
        for i in range(1, n + 1):
            for _ in range(2):
                M = random_rational_matrix(n - 1, rng)
                assert deletion_det_identity(v, i, M)


def test_deletion_identity_preconditions():
    with pytest.raises(PatternPreconditionError):
        deletion_det_identity((2, 1, 4, 3), 1, identity_matrix(3))
    with pytest.raises(ShapeError):
        deletion_det_identity((2, 4, 1, 3), 1, identity_matrix(4))


def test_young_sign_check_examples():
    # The law's hypotheses, Durfee square at most k and M k-positive, are
    # asserted before each evaluation.
    T4 = gen_totally_positive(4, seed=31)
    assert durfee((4, 4, 4, 4)) <= 4 and is_k_positive(T4, 4)
    assert young_sign_law(young_diagram_grid((4, 4, 4, 4), 4),
                          (1, 2, 3, 4), (1, 2, 3, 4), T4)
    T3 = gen_totally_positive(3, seed=31)
    assert durfee((3, 3, 1)) <= 2 and durfee((2, 2, 2)) <= 2
    assert is_k_positive(T3, 2)
    assert young_sign_law(young_diagram_grid((3, 3, 1), 3),
                          (1, 2, 3), (1, 2, 3), T3)
    assert young_sign_law(young_diagram_grid((2, 2, 2), 3),
                          (1, 2, 3), (1, 2, 3), T3)
    # the (2,2,2) case is a forced zero: antidiagonal cell (1, 3) missing
    value = det(restrict(repeat_submatrix(T3, (1, 2, 3), (1, 2, 3)),
                         graph_of_upper_interval(identity(3))))
    assert value != 0  # sanity: zero above came from the shape, not T3
    # outside the hypotheses: Durfee square 2 exceeds k = 1, and a
    # matrix with a nonpositive 2-minor is not 2-positive
    assert durfee((3, 3, 1)) > 1
    assert not is_k_positive(from_rows([[1, 2], [2, 1]]), 2)


def test_young_sign_check_inadmissible_zero():
    T3 = gen_totally_positive(3, seed=5)
    # full shape with a repeated row label: inadmissible, so exactly zero
    assert young_sign_law(young_diagram_grid((3, 3, 3), 3),
                          (1, 1, 2), (1, 2, 3), T3)


def test_young_complement_examples():
    # Hypotheses first: the grid's largest square is at most k and T3 is
    # k-positive.
    T3 = gen_totally_positive(3, seed=7)
    labels = (1, 2, 3)
    for parts, k in [((), 3), ((1,), 2), ((3,), 3)]:
        assert largest_square(young_complement_grid(parts, 3)) <= k
        assert is_k_positive(T3, k)
    assert young_sign_law(young_complement_grid((), 3), labels, labels, T3)
    assert young_sign_law(young_complement_grid((1,), 3), labels, labels, T3)
    # removed shape sticking out of the staircase forces a zero
    assert young_sign_law(young_complement_grid((3,), 3), labels, labels, T3)


def staircase_contained(parts, n) -> bool:
    """Whether the Young diagram of ``parts`` contains (n, ..., 1)."""
    padded = tuple(parts) + (0,) * (n - len(parts))
    return all(padded[i - 1] >= n + 1 - i for i in range(1, n + 1))


def contained_in_reverse_staircase(parts, n) -> bool:
    """Whether the Young diagram of ``parts`` fits inside (n - 1, ..., 0)."""
    padded = tuple(parts) + (0,) * (n - len(parts))
    return all(padded[i - 1] <= n - i for i in range(1, n + 1))


def staircase_terms(build, parts, n) -> tuple[bool, int]:
    """
    Oracle for ``young_sign_law``: the law's staircase test and sign
    exponent read off the partition, one pair per grid builder.  The
    Young diagram of lambda wants lambda to contain the staircase and
    the sign (-1)^(n^2 - |lambda|); the complement of mu wants mu inside
    the reverse staircase and the sign (-1)^|mu|.
    """
    if build is young_diagram_grid:
        return staircase_contained(parts, n), n * n - sum(parts)
    return contained_in_reverse_staircase(parts, n), sum(parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_young_sign_law_matches_the_staircase_laws(n):
    # Every shape in the n x n box and both builders, on a totally
    # positive matrix (where the law holds) and a random one (where the
    # sign of a nonzero determinant is a coin flip), with distinct and
    # with repeated row labels.
    rng = random.Random(70 + n)
    matrices = [gen_totally_positive(n, seed=n),
                random_rational_matrix(n, rng)]
    labels = tuple(range(1, n + 1))
    for parts in _partitions_in_box(n):
        assert durfee(parts) == largest_square(young_diagram_grid(parts, n))
        for build in (young_diagram_grid, young_complement_grid):
            fits, exponent = staircase_terms(build, parts, n)
            P = build(parts, n)
            assert all(P.has_cell(i, n + 1 - i)
                       for i in range(1, n + 1)) == fits
            assert n * n - len(cells_of(P)) == exponent
            assert young_sign_law(P, labels, labels, matrices[0])
            for R in (labels, (1,) + labels[:-1]):
                for M in matrices:
                    value = det(restrict(repeat_submatrix(M, R, labels), P))
                    expected = obeys_sign_law(
                        -value if exponent % 2 else value,
                        fits and is_admissible(P, R, labels))
                    assert young_sign_law(P, R, labels, M) == expected, (
                        parts, build.__name__, R)


def test_young_sign_law_refuses_a_grid_of_another_shape():
    T4 = gen_totally_positive(4, seed=2)
    labels = (1, 2, 3, 4)
    with pytest.raises(PreconditionError, match="Young diagram"):
        young_sign_law(graph_of_upper_interval((2, 4, 1, 3)),
                       labels, labels, T4)


def young_complement_via_transpose(parts, R, C, M):
    """
    The same restricted determinant as in the complement law, computed
    through the antidiagonal transpose: reflect the matrix, flip the
    label multisets inside [m], and reflect the shape into a straight
    Young diagram.  An independent route for the complement law.
    """
    R = as_multiset(R, M.rows)
    C = as_multiset(C, M.rows)
    n = len(R)
    padded = tuple(parts) + (0,) * (n - len(parts))
    # Reflecting {(i, j) : j > parts_i} across the antidiagonal yields the
    # straight shape whose parts are n minus the conjugate, read backwards.
    conjugate = tuple(sum(1 for p in padded if p >= t) for t in range(1, n + 1))
    reflected = tuple(n - conjugate[n - i] for i in range(1, n + 1))
    flipped = antidiagonal_transpose(M)
    shape = young_diagram_grid(reflected, n)
    return det(restrict(repeat_submatrix(flipped, bar(C, M.rows), bar(R, M.rows)),
                        shape))


def test_young_complement_reduces_to_antidiagonal_transpose():
    M = gen_totally_positive(4, seed=3)
    for parts in [(), (1,), (1, 1), (2, 1), (3, 2, 1), (2, 2)]:
        for R, C in [((1, 2, 3, 4), (1, 2, 3, 4)), ((1, 1, 2, 3), (1, 2, 3, 3))]:
            direct = det(restrict(repeat_submatrix(M, R, C),
                                  young_complement_grid(parts, 4)))
            assert direct == young_complement_via_transpose(parts, R, C, M)


def test_young_sweep_with_repeated_labels():
    rng = random.Random(15)
    T = gen_totally_positive(4, seed=rng.randint(0, 99))
    labels = [(1, 2, 3, 4), (1, 1, 2, 3), (1, 2, 2, 3), (2, 3, 3, 4)]
    shapes = [(4, 4, 4, 4), (4, 4, 3, 2), (4, 3, 2, 1), (4, 4, 4, 1)]
    for shape in shapes:
        for R in labels:
            for C in labels:
                assert young_sign_law(young_diagram_grid(shape, 4), R, C, T)
                assert young_sign_law(young_complement_grid(
                    tuple(4 - p for p in reversed(shape)), 4), R, C, T)


def test_inversions_equal_complement_boxes():
    # When the graph of [v, w0] is a Young diagram, its complement in the
    # n x n box has one cell per inversion of v.
    def shapes(v):
        return young_shapes(graph_of_upper_interval(v), young_diagram_grid)

    assert shapes(identity(4)) == [(4, 4, 4, 4)] and length(identity(4)) == 0
    young = 0
    for v in qualifying(5):
        for parts in shapes(v):
            assert 25 - sum(parts) == length(v)
            young += 1
    assert young > 1
    assert shapes(longest_element(3)) == []  # outside the hypothesis


def test_sign_theorem_check_worked_examples():
    # The sharp sign law as main-sq runs it, with its hypotheses asserted:
    # v avoids 1324 and 2143, and M is k-positive at k = largest square.
    v = (2, 4, 1, 3)
    assert avoids(v, *FORBIDDEN_PATTERNS)
    assert is_k_positive(FIXTURE, largest_square(graph_of_upper_interval(v)))
    for labels in [(1, 2, 3, 4), (1, 2, 2, 3)]:
        result = dual_canonical_eval(v, labels, labels, FIXTURE)
        assert obeys_sign_law(result.value, result.admissible)
    with pytest.raises(PatternPreconditionError):
        dual_canonical_eval((2, 1, 4, 3), (1, 2, 3, 4), (1, 2, 3, 4), FIXTURE)
    # the fixture is not 3-positive, but Gamma[id, w0] needs k = 4
    assert largest_square(graph_of_upper_interval(identity(4))) == 4
    assert not is_k_positive(FIXTURE, 4)


def test_sign_probe_reports():
    # A case satisfying all hypotheses, on a totally positive matrix.
    T = gen_totally_positive(5, seed=13)
    report = lewis_carroll_sign_probe((2, 3, 5, 1, 4), (1, 2, 3, 4, 5),
                                      (1, 2, 3, 4, 5), T)
    assert report.hypotheses_met
    assert report.sigma in (-1, 1)
    assert not report.violated
    assert report.to_doc()["cross_term"] in ("satisfied", "vacuous")

    # Pattern failure is reported, not raised.
    bad = lewis_carroll_sign_probe((2, 1, 4, 3), (1, 2, 3, 4), (1, 2, 3, 4),
                                   gen_totally_positive(4, seed=1))
    assert not bad.hypotheses_met and bad.reasons

    # So is an anchor failure: the last box of 321 is anchored at (3, 1)
    # and the second-to-last at (2, 2), but 1 < v_a < v_n = 1 fails.
    unanchored = lewis_carroll_sign_probe((3, 2, 1), (1, 2, 3), (1, 2, 3),
                                          gen_totally_positive(3, seed=1))
    assert unanchored == SignProbeReport(
        False, ("second-to-last anchor fails a < n, 1 < v_a < v_n",))

    # A reference product can vanish for inadmissible labels.
    vanishing = lewis_carroll_sign_probe(
        (2, 3, 5, 1, 4), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), T)
    assert not vanishing.hypotheses_met
    assert any("reference" in reason for reason in vanishing.reasons)


def test_sign_probe_vacuous_claims_are_possible():
    # A zero cross term must be reported as vacuous, while the other
    # claim is still checked (these labels kill exactly one term).
    T = gen_totally_positive(4, seed=2)
    report = lewis_carroll_sign_probe((2, 4, 1, 3), (1, 2, 2, 3),
                                      (1, 1, 2, 2), T)
    assert report.hypotheses_met
    assert report.cross_term == "vacuous"
    assert report.complement_term == "satisfied"
    assert not report.violated


def test_largest_square_vs_gap_condition():
    # the square bound on the grid matches the pairwise gap condition on
    # non-inversions, size by size
    for n in range(1, 7):
        for v in symmetric_group(n):
            k = largest_square(graph_of_upper_interval(v))
            for bound in range(1, n + 1):
                gap_ok = all(j - i <= bound - 1 or v[j - 1] - v[i - 1] <= bound - 1
                             for (i, j) in non_inversions(v))
                assert (k <= bound) == gap_ok
