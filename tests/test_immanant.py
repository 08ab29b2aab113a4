import functools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bar,
    from_rows,
    identity_matrix,
    kl_at_one,
    random_rational_matrix,
    square_matrices,
    young_shapes,
)
import fixtures
from kl_via_r import kl_table_via_r
from klimm.errors import (
    PatternPreconditionError,
    PreconditionError,
    ShapeError,
    SizeGuardError,
    SizeMismatchError,
)
from klimm.exactmat import (
    Matrix,
    antidiagonal_transpose,
    det,
    gen_totally_positive,
    is_k_positive,
    repeat_submatrix,
    restrict,
)
from klimm.grid import (
    FORBIDDEN_PATTERNS,
    as_multiset,
    durfee,
    graph_of_upper_interval,
    largest_square,
    non_inversions,
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
    young_complement_sign_law,
    young_sign_law,
)
from klimm.klpoly import ZERO, KLCache
from klimm.perm import (
    avoids,
    bruhat_leq,
    compose,
    identity,
    length,
    longest_element,
    symmetric_group,
)

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


# Matrices the Hypothesis strategy rarely draws.  In the large-denominator
# case every row has four distinct prime denominators near 10^4, so a sum
# divided by anything but the product of the row multipliers is wrong.
_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)
EDGE_MATRICES = {
    "zero-row": from_rows([[3, -1, Fraction(2, 7), 5], [0, 0, 0, 0],
                                  [1, 4, -2, Fraction(7, 3)], [6, 2, 9, -6]]),
    "large-coprime-denominators": from_rows(
        [[Fraction((-1) ** (i + j) * (97 * i + 31 * j + 1),
                   _PRIMES[(i + j) % len(_PRIMES)])
          for j in range(5)] for i in range(5)]),
    "integer": from_rows([[2, -3, 5, 1], [7, 0, -1, 4],
                                 [-2, 6, 3, 8], [1, 1, -5, 2]]),
    "1x1": from_rows([[Fraction(-7, 3)]]),
}


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_defining_sum_matches_the_unpruned_sum_on_edge_matrices(name):
    M = EDGE_MATRICES[name]
    for v in symmetric_group(M.rows):
        assert imm_definition(v, M) == _unpruned_definition(v, M)


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
    assert young_sign_law((4, 4, 4, 4), (1, 2, 3, 4), (1, 2, 3, 4), T4)
    T3 = gen_totally_positive(3, seed=31)
    assert durfee((3, 3, 1)) <= 2 and durfee((2, 2, 2)) <= 2
    assert is_k_positive(T3, 2)
    assert young_sign_law((3, 3, 1), (1, 2, 3), (1, 2, 3), T3)
    assert young_sign_law((2, 2, 2), (1, 2, 3), (1, 2, 3), T3)
    # the (2,2,2) case is a forced zero: the staircase is missing
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
    assert young_sign_law((3, 3, 3), (1, 1, 2), (1, 2, 3), T3)


def test_young_complement_examples():
    # Hypotheses first: the grid's largest square is at most k and T3 is
    # k-positive.
    T3 = gen_totally_positive(3, seed=7)
    labels = (1, 2, 3)
    for parts, k in [((), 3), ((1,), 2), ((3,), 3)]:
        assert largest_square(young_complement_grid(parts, 3)) <= k
        assert is_k_positive(T3, k)
    assert young_complement_sign_law((), labels, labels, T3)
    assert young_complement_sign_law((1,), labels, labels, T3)
    # removed shape sticking out of the staircase forces a zero
    assert young_complement_sign_law((3,), labels, labels, T3)


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
    shape = young_diagram_grid(reflected, n, bar(C, M.rows), bar(R, M.rows))
    return det(restrict(repeat_submatrix(flipped, bar(C, M.rows), bar(R, M.rows)),
                        shape))


def test_young_complement_reduces_to_antidiagonal_transpose():
    M = gen_totally_positive(4, seed=3)
    for parts in [(), (1,), (1, 1), (2, 1), (3, 2, 1), (2, 2)]:
        for R, C in [((1, 2, 3, 4), (1, 2, 3, 4)), ((1, 1, 2, 3), (1, 2, 3, 3))]:
            direct = det(restrict(repeat_submatrix(M, R, C),
                                  young_complement_grid(parts, 4, R, C)))
            assert direct == young_complement_via_transpose(parts, R, C, M)


def test_young_sweep_with_repeated_labels():
    rng = random.Random(15)
    T = gen_totally_positive(4, seed=rng.randint(0, 99))
    labels = [(1, 2, 3, 4), (1, 1, 2, 3), (1, 2, 2, 3), (2, 3, 3, 4)]
    shapes = [(4, 4, 4, 4), (4, 4, 3, 2), (4, 3, 2, 1), (4, 4, 4, 1)]
    for shape in shapes:
        for R in labels:
            for C in labels:
                assert young_sign_law(shape, R, C, T)
                assert young_complement_sign_law(
                    tuple(4 - p for p in reversed(shape)), R, C, T)


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
    for labels in [(1, 2, 3, 4), (1, 2, 2, 3)]:
        assert is_k_positive(
            FIXTURE, largest_square(graph_of_upper_interval(v, labels, labels)))
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
