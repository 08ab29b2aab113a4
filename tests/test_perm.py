import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import non_inversions
from klimm.errors import SizeGuardError, SizeMismatchError
from klimm.perm import (
    as_perm,
    avoids,
    bruhat_leq,
    bruhat_table,
    compose,
    delete_entry,
    format_perm,
    identity,
    inverse,
    is_in_maximal_parabolic,
    is_permutation_word,
    iter_bits,
    length,
    longest_element,
    parse_perm,
    pattern_occurs,
    symmetric_group,
)

perms_upto_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


def test_length_examples():
    assert length(identity(4)) == 0
    assert length(longest_element(4)) == 6
    assert length((2, 4, 1, 3)) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_longest_element_length(n):
    assert length(longest_element(n)) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [0, -1])
def test_longest_element_rejects_sizes_below_one(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        longest_element(n)


def test_non_inversions_examples():
    assert non_inversions((2, 4, 1, 3)) == [(1, 2), (1, 4), (3, 4)]
    assert non_inversions(identity(4)) == list(
        itertools.combinations(range(1, 5), 2))
    assert non_inversions(longest_element(5)) == []


def test_compose_inverse():
    v = (2, 4, 1, 3)
    assert compose(v, identity(4)) == v
    assert inverse(v) == (3, 1, 4, 2)
    assert compose(v, inverse(v)) == identity(4)
    assert compose(longest_element(4), longest_element(4)) == identity(4)
    with pytest.raises(SizeMismatchError):
        compose((1, 2), (1, 2, 3))


def test_as_perm_rejects_bad_words():
    for word in [(1, 1, 2), (0, 1), (2.0, 1.0), (1, 2.0), (True,),
                 (2, True), ("1",)]:
        assert not is_permutation_word(word), word
        with pytest.raises(ValueError, match="not a permutation"):
            as_perm(word)


def test_bruhat_examples():
    assert bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    for v in symmetric_group(4):
        assert bruhat_leq(identity(4), v)
    # length is monotone along the order
    assert not bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))
    with pytest.raises(SizeMismatchError):
        bruhat_leq((1, 2), (1, 2, 3))
    # far beyond the Bruhat table's guard
    assert bruhat_leq(identity(130), longest_element(130))
    assert not bruhat_leq(longest_element(130), identity(130))


def _bruhat_by_covers(n):
    """Reflexive-transitive closure of the covering relation: u < ut for a
    transposition t raising the length by exactly one."""
    elements = list(symmetric_group(n))
    reachable = {v: {v} for v in elements}
    by_length = sorted(elements, key=length, reverse=True)
    for u in by_length:
        for i in range(n):
            for j in range(i + 1, n):
                w = list(u)
                w[i], w[j] = w[j], w[i]
                w = tuple(w)
                if length(w) == length(u) + 1:
                    reachable[u] |= reachable[w]
    return reachable


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_against_covering_closure(n):
    reachable = _bruhat_by_covers(n)
    for x in symmetric_group(n):
        for y in symmetric_group(n):
            assert bruhat_leq(x, y) == (y in reachable[x])


@st.composite
def bruhat_pairs(draw):
    """(x, y) with x <= y, built by undoing inversions of a random y."""
    n = draw(st.sampled_from([1, 2, 3, 5, 7, 8, 15, 16, 31, 64, 127, 128, 140]))
    y = tuple(draw(st.permutations(list(range(1, n + 1)))))
    x = list(y)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=8)):
        if i < j and x[i] > x[j]:
            x[i], x[j] = x[j], x[i]
    return tuple(x), y


@given(bruhat_pairs())
@settings(max_examples=60, deadline=None)
def test_bruhat_holds_below_and_is_antisymmetric(pair):
    x, y = pair
    assert bruhat_leq(x, y)
    assert bruhat_leq(y, x) == (x == y)


def _has_bit(mask, k):
    return mask >> k & 1 == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_table_matches_bruhat_leq_exhaustively(n):
    table = bruhat_table(n)
    assert table.perms == tuple(symmetric_group(n))
    assert table.lengths == tuple(map(length, table.perms))
    assert all(table.index[v] == k for k, v in enumerate(table.perms))
    for j, x in enumerate(table.perms):
        for k, y in enumerate(table.perms):
            assert _has_bit(table.below[k], j) == bruhat_leq(x, y)
            assert _has_bit(table.above[j], k) == bruhat_leq(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bruhat_table_descent_and_parity_masks(n):
    table = bruhat_table(n)
    assert len(table.descents) == max(n - 1, 0)
    for k, v in enumerate(table.perms):
        for i, mask in enumerate(table.descents):
            assert _has_bit(mask, k) == (v[i] > v[i + 1])
        assert _has_bit(table.odd, k) == (length(v) % 2 == 1)
    assert table.odd >> len(table.perms) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bruhat_table_moves_and_w0_mirror(n):
    table = bruhat_table(n)
    top = len(table.perms) - 1
    w0 = longest_element(n)
    assert len(table.times_s) == max(n - 1, 0)
    for k, v in enumerate(table.perms):
        for i, moves in enumerate(table.times_s):
            swapped = v[:i] + (v[i + 1], v[i]) + v[i + 2:]
            assert moves[k] == table.index[swapped]
        descents = [i for i in range(n - 1) if v[i] > v[i + 1]]
        assert table.first_descent[k] == (descents[0] if descents else -1)
        assert table.index[compose(w0, v)] == top - k


def bruhat_table_per_word(n):
    """
    Test oracle for the fields of ``bruhat_table`` that each word gives
    on its own: lengths by counting inversions, products by swapping the
    entries of each word, the moves by grouping positions on how far
    their product lies, descents and parity one position at a time.
    """
    perms = tuple(symmetric_group(n))
    index = {v: k for k, v in enumerate(perms)}
    times_s = tuple(
        tuple(index[v[:i] + (v[i + 1], v[i]) + v[i + 2:]] for v in perms)
        for i in range(n - 1))
    moves = []
    for products in times_s:
        groups = {}
        for k, j in enumerate(products):
            groups[j - k] = groups.get(j - k, 0) | 1 << k
        moves.append(tuple(sorted(groups.items())))
    first_descent = tuple(
        next((i for i in range(n - 1) if v[i] > v[i + 1]), -1) for v in perms)
    descents = tuple(
        sum(1 << k for k, v in enumerate(perms) if v[i] > v[i + 1])
        for i in range(n - 1))
    lengths = tuple(map(length, perms))
    odd = sum(1 << k for k, lv in enumerate(lengths) if lv % 2)
    return {"perms": perms, "lengths": lengths, "index": index,
            "descents": descents, "odd": odd, "times_s": times_s,
            "moves": tuple(moves), "first_descent": first_descent}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_bruhat_table_matches_the_per_word_construction(n):
    table = bruhat_table(n)
    for name, value in bruhat_table_per_word(n).items():
        assert getattr(table, name) == value, name


def bruhat_table_bit_by_bit(n):
    """
    Test oracle for ``bruhat_table``: every field as it was first built,
    lifting ``below`` one set bit at a time along the first descent and
    reading ``above`` as the bit-reversed ``below`` of the w_0 mirror.
    """
    fields = bruhat_table_per_word(n)
    perms, times_s = fields["perms"], fields["times_s"]
    size = len(perms)
    below = []
    for k, i in enumerate(fields["first_descent"]):
        if i < 0:
            below.append(1 << k)
            continue
        lower = below[times_s[i][k]]
        lifted = 0
        for j in iter_bits(lower):
            lifted |= 1 << times_s[i][j]
        below.append(lower | lifted)
    above = tuple(int(format(below[size - 1 - k], f"0{size}b")[::-1], 2)
                  for k in range(size))
    return {**fields, "below": tuple(below), "above": above}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bruhat_table_matches_the_bit_by_bit_oracle(n):
    table = bruhat_table(n)
    expected = bruhat_table_bit_by_bit(n)
    assert {field.name for field in dataclasses.fields(table)} == set(expected)
    for name, value in expected.items():
        assert getattr(table, name) == value, name


@st.composite
def pairs_in(draw, n):
    """(x, y) in S_n: independent, or x below y by undoing inversions."""
    sn = st.permutations(list(range(1, n + 1))).map(tuple)
    y = draw(sn)
    if draw(st.booleans()):
        return draw(sn), y
    x = list(y)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if i < j and x[i] > x[j]:
            x[i], x[j] = x[j], x[i]
    return tuple(x), y


def _table_agrees_with_bruhat_leq(table, x, y):
    j, k = table.index[x], table.index[y]
    assert _has_bit(table.below[k], j) == bruhat_leq(x, y)
    assert _has_bit(table.above[j], k) == bruhat_leq(x, y)
    assert _has_bit(table.below[j], k) == bruhat_leq(y, x)


@given(pairs_in(6))
@settings(max_examples=300, deadline=None)
def test_bruhat_table_matches_bruhat_leq_on_s6(pair):
    _table_agrees_with_bruhat_leq(bruhat_table(6), *pair)


@given(pairs_in(7))
@settings(max_examples=300, deadline=None)
def test_bruhat_table_matches_bruhat_leq_on_s7(pair):
    # No oracle builds the whole S_7 table in test time; pairs are checked.
    _table_agrees_with_bruhat_leq(bruhat_table(7), *pair)


def test_bruhat_table_is_guarded():
    with pytest.raises(SizeGuardError):
        bruhat_table(8)


def test_iter_bits_ascends():
    assert list(iter_bits(0)) == []
    mask = (1 << 700) | (1 << 64) | 0b1011
    assert list(iter_bits(mask)) == [0, 1, 3, 64, 700]


def test_pattern_examples():
    assert not pattern_occurs((2, 4, 1, 3), (1, 3, 2, 4))
    assert not pattern_occurs((2, 4, 1, 3), (2, 1, 4, 3))
    assert pattern_occurs((5, 2, 1, 4, 3), (2, 1, 4, 3))
    assert pattern_occurs((2, 4, 1, 3), (2, 4, 1, 3))
    with pytest.raises(ValueError):
        pattern_occurs((1, 2), (1, 2, 3))
    assert avoids((1, 2), (1, 3, 2, 4))  # longer patterns cannot occur


def _pattern_occurs_by_sorting(v, p):
    """Oracle: rank every subsequence by sorting it and compare with p."""
    m = len(p)
    for positions in itertools.combinations(range(len(v)), m):
        sub = [v[i] for i in positions]
        ranks = sorted(sub)
        if all(ranks[p[k] - 1] == sub[k] for k in range(m)):
            return True
    return False


@pytest.mark.parametrize("n", range(0, 7))
def test_pattern_occurs_matches_sorting_oracle(n):
    patterns = [p for m in range(min(n, 4) + 1) for p in symmetric_group(m)]
    for v in symmetric_group(n):
        for p in patterns:
            assert pattern_occurs(v, p) == _pattern_occurs_by_sorting(v, p)


perms_upto_7 = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


@given(perms_upto_7, perms_upto_7)
@settings(max_examples=150, deadline=None)
def test_pattern_occurs_matches_sorting_oracle_up_to_s7(v, p):
    if len(p) > len(v):
        v, p = p, v
    assert pattern_occurs(v, p) == _pattern_occurs_by_sorting(v, p)


@pytest.mark.parametrize("v,p", [
    ((2, 4, 1, 3), (3, 1)),
    ((2, 4, 1, 3), (1, 1)),
    ((2, 4, 1, 3), (0, 1)),
    ((2, 4, 4, 3), (2, 1)),
    ((2, 5, 1, 3), (1, 2)),
    ((1, 2), (3, 1)),
    ((1.0, 3, 2, 4), (1, 3, 2, 4)),
    ((2, 1, 4, 3.0), (2, 1, 4, 3)),
    ((5, 2, 1, 4, 3), (2.0, 1, 4, 3)),
    ((1, 4, 2, 5, 3), (1, 3.0, 2, 4)),
    ((True, 2), (2, 1)),
])
def test_pattern_occurs_rejects_words_that_are_not_permutations(v, p):
    with pytest.raises(ValueError):
        pattern_occurs(v, p)
    with pytest.raises(ValueError):
        avoids(v, p)


@given(st.permutations(list(range(1, 9))).map(tuple),
       st.lists(st.integers(0, 6).flatmap(
           lambda m: st.permutations(list(range(1, m + 1)))).map(tuple),
           max_size=3))
@settings(max_examples=150, deadline=None)
def test_avoids_matches_sorting_oracle_at_8(v, patterns):
    assert avoids(v, *patterns) == \
        (not any(_pattern_occurs_by_sorting(v, p) for p in patterns))


KERNEL_PATTERNS = ((1, 3, 2, 4), (2, 1, 4, 3))


@pytest.mark.parametrize("n", range(0, 8))
def test_kernel_patterns_match_sorting_oracle_exhaustively(n):
    # avoids sends 1324 and 2143 to their kernels, not to pattern_occurs.
    for v in symmetric_group(n):
        occurs = [_pattern_occurs_by_sorting(v, p) for p in KERNEL_PATTERNS]
        for p, expected in zip(KERNEL_PATTERNS, occurs):
            assert avoids(v, p) == (not expected), (v, p)
        assert avoids(v, *KERNEL_PATTERNS) == (not any(occurs)), v
        assert avoids(v, *reversed(KERNEL_PATTERNS)) == (not any(occurs)), v


@given(st.integers(min_value=8, max_value=12).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple),
    st.sampled_from(KERNEL_PATTERNS))
@settings(max_examples=300, deadline=None)
def test_kernel_patterns_match_pattern_occurs_at_8_to_12(v, p):
    assert avoids(v, p) == (not pattern_occurs(v, p))


def test_avoids_edge_rules():
    # Patterns longer than the host are skipped, whatever else is passed.
    assert avoids((), *KERNEL_PATTERNS)
    assert avoids((2, 1, 3), (2, 1, 4, 3), (1, 3, 2, 4))
    assert not avoids((2, 1, 3), (2, 1, 4, 3), (2, 1))
    assert avoids((1, 2, 3), (1, 2, 3, 4, 5))
    # The host is checked even when no pattern fits it.
    with pytest.raises(ValueError, match="must be a permutation"):
        avoids((1, 1), (2, 1, 4, 3))
    with pytest.raises(ValueError, match="must be a permutation"):
        avoids((2, 1, 4, 3.0))
    # A bad pattern is reached and rejected after a kernel pattern.
    with pytest.raises(ValueError, match="must be permutations"):
        avoids((2, 1, 4, 3), (1, 3, 2, 4), (1, 3, 3, 4))


def _longest_increasing_run(v):
    best = [0] * len(v)
    for i, x in enumerate(v):
        best[i] = 1 + max((best[j] for j in range(i) if v[j] < x), default=0)
    return max(best, default=0)


@given(perms_upto_5, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_increasing_pattern_matches_lis(v, k):
    if k > len(v):
        return
    assert pattern_occurs(v, identity(k)) == (_longest_increasing_run(v) >= k)


def test_delete_entry_examples():
    assert delete_entry((6, 2, 7, 8, 5, 3, 1, 4), 2) == (5, 6, 7, 4, 2, 1, 3)
    assert delete_entry(identity(5), 3) == identity(4)
    assert delete_entry((2, 4, 1, 3), 1) == (3, 1, 2)
    with pytest.raises(IndexError):
        delete_entry((1, 2), 3)


def test_delete_entry_length_drop_exhaustive():
    for v in symmetric_group(4):
        for i in range(1, 5):
            involving = sum(1 for j in range(1, 5) if j != i
                            and (j < i) == (v[j - 1] > v[i - 1]))
            assert length(delete_entry(v, i)) == length(v) - involving


def test_maximal_parabolic():
    assert is_in_maximal_parabolic(identity(4))
    assert not is_in_maximal_parabolic(longest_element(4))
    assert is_in_maximal_parabolic((2, 1, 3, 4))
    assert not is_in_maximal_parabolic((1,))  # no proper initial segment


@given(perms_upto_5, st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_adjacent_transposition_changes_length_by_one(v, i):
    if i >= len(v):
        return
    s = list(identity(len(v)))
    s[i - 1], s[i] = s[i], s[i - 1]
    assert abs(length(compose(v, tuple(s))) - length(v)) == 1


def test_parse_and_format_round_trip():
    assert parse_perm("2,4,1,3") == (2, 4, 1, 3)
    assert parse_perm("2413") == (2, 4, 1, 3)
    assert format_perm((2, 4, 1, 3)) == "2413"
    long_word = tuple(range(1, 11))
    assert parse_perm(format_perm(long_word)) == long_word
    with pytest.raises(ValueError):
        parse_perm("21x3")
