import functools
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kl_at_one, per_w_terms, store_holding
from kl_every_candidate import (
    Oracle,
    kl_at_by_rows,
    kl_at_every_candidate,
    pairs_of,
)
from kl_via_r import (
    add,
    coeff,
    degree,
    kl_polynomial_via_r,
    kl_table_via_r,
    mirrored,
    mul,
    r_polynomial,
    sub,
)
from klimm import perm
from klimm.cli import main
from klimm.errors import SizeGuardError, SizeMismatchError
from klimm.grid import FORBIDDEN_PATTERNS
from klimm.klpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    KLCache,
    KLCacheRegistry,
    cache_path_for,
    imm_terms,
    kl_at,
    kl_polynomial,
)
from klimm.perm import (
    avoids,
    bruhat_leq,
    identity,
    length,
    longest_element,
    symmetric_group,
)
from klimm.suites import Config, _avoiders, run_suite


def test_polynomial_basics():
    p = IntPolynomial((1, 1))
    assert str(p) == "1 + q"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(IntPolynomial((0, -1, 3))) == "-q + 3q^2"
    assert p(1) == 2 and p(2) == 3
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert mul(p, p).coeffs == (1, 2, 1)
    assert add(p, IntPolynomial((0, -1))) == ONE
    assert sub(p, p) == ZERO
    assert mirrored(p, 3).coeffs == (0, 0, 1, 1)


def test_r_polynomial_of_small_intervals():
    assert str(r_polynomial((1, 2), (2, 1))) == "-1 + q"
    assert str(r_polynomial((1, 2, 3), (2, 3, 1))) == "1 - 2q + q^2"
    assert r_polynomial((2, 1), (1, 2)) == ZERO


def test_trivial_values(kl_cache_s4):
    v = (2, 4, 1, 3)
    assert kl_polynomial(v, v, kl_cache_s4) == ONE
    assert kl_polynomial(longest_element(4), identity(4), kl_cache_s4) == ZERO
    assert kl_at_one(v, v, kl_cache_s4) == 1
    assert kl_at_one(longest_element(4), identity(4), kl_cache_s4) == 0
    with pytest.raises(SizeMismatchError):
        kl_polynomial((1, 2), (1, 2, 3))


@pytest.mark.parametrize("x,y", [((1, 1, 3), (3, 2, 1)),
                                 ((1, 2, 3), (3, 3, 1)),
                                 ((0, 1, 2), (2, 1, 0))])
def test_kl_polynomial_rejects_words_that_are_not_permutations(x, y):
    with pytest.raises(ValueError):
        kl_polynomial(x, y, KLCache(3))


def test_smallest_nontrivial_polynomial(kl_cache_s4):
    p = kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), kl_cache_s4)
    assert str(p) == "1 + q"
    assert kl_at_one((1, 3, 2, 4), (3, 4, 1, 2), kl_cache_s4) == 2
    # and the independent route agrees
    assert kl_polynomial_via_r((1, 3, 2, 4), (3, 4, 1, 2)) == p


@pytest.mark.parametrize("n", [4, 5])
def test_two_implementations_agree_on_all_of_sn(n):
    cache = KLCache(n)
    for y in symmetric_group(n):
        table = kl_table_via_r(y)
        for x in symmetric_group(n):
            assert kl_polynomial(x, y, cache) == table.get(x, ZERO)


def test_identity_polynomial_detects_smoothness_on_s6():
    # Lakshmibai-Sandhya: the Schubert variety of y is smooth iff y avoids
    # 3412 and 4231, and in type A that holds iff P_{e,y} = 1.
    cache = KLCache(6)
    for y in symmetric_group(6):
        smooth = avoids(y, (3, 4, 1, 2), (4, 2, 3, 1))
        assert (kl_polynomial(identity(6), y, cache) == ONE) == smooth


def test_prop31_kl_lookup_pattern_is_pinned(monkeypatch):
    # The KL values a cold prop-3.1 run looks up, and how often, do not
    # depend on how the recursion finds its terms; the benchmark's S_6
    # anchor relies on that.
    caches = {}
    for_n = KLCacheRegistry.for_n

    def recording(registry, n):
        caches[n] = for_n(registry, n)
        return caches[n]

    monkeypatch.setattr(KLCacheRegistry, "for_n", recording)
    report = run_suite("prop-3.1", Config(max_n=6, samples=1, seed=0))
    assert report.ok
    # The report the CLI prints for this config, pinned from the defining
    # sum that made one kl_at call per w >= v.
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "0d8fe85e48e0f4f96114d1c5adda073db6a1acb01fce4933270ec86a18361208")
    assert [caches[n].stats() for n in sorted(caches)] == [
        {"n": 1, "entries": 0, "hits": 0, "misses": 0},
        {"n": 2, "entries": 1, "hits": 0, "misses": 1},
        {"n": 3, "entries": 13, "hits": 13, "misses": 13},
        {"n": 4, "entries": 170, "hits": 280, "misses": 170},
        {"n": 5, "entries": 2508, "hits": 6293, "misses": 2508},
        {"n": 6, "entries": 43693, "hits": 224640, "misses": 43693},
    ]


def _agrees_with_the_every_candidate_oracle(n, queries):
    """
    Run ``queries``, pairs of table positions, through ``kl_at`` on a
    cold cache and through the every-candidate oracle on a cold store of
    its own, which walks the whole row of y on a miss: the values, the
    counts after every query and the final stores must agree.
    """
    fast, slow = KLCache(n), Oracle(n)
    for x, y in queries:
        assert kl_at(fast, x, y) == kl_at_by_rows(slow, x, y), (x, y)
        assert fast.stats() == slow.stats(), (x, y)
    assert pairs_of(fast) == slow.values
    return fast


@pytest.mark.parametrize("n", [4, 5])
def test_kl_at_matches_the_every_candidate_oracle_on_all_pairs(n):
    size = len(perm.bruhat_table(n).perms)
    _agrees_with_the_every_candidate_oracle(
        n, [(x, y) for y in range(size) for x in range(size)])


@pytest.mark.parametrize("n", [4, 5])
def test_kl_at_matches_the_every_candidate_oracle_in_shuffled_order(n):
    # Pairs of long rows come early, so a fill finds some of the rows it
    # reads stored already and fills the others itself.
    size = len(perm.bruhat_table(n).perms)
    queries = [(x, y) for y in range(size) for x in range(size)]
    random.Random(n).shuffle(queries)
    _agrees_with_the_every_candidate_oracle(n, queries)


def test_kl_at_matches_the_every_candidate_oracle_in_prop31_order():
    # The rows a cold prop-3.1 run asks of S_6, in its order: for each
    # avoider v, imm_terms reads the row of y = w0 v its defining sum
    # needs, and the oracle walks every x below y, once per w.
    fast, slow = KLCache(6), Oracle(6)
    for v in _avoiders(6, FORBIDDEN_PATTERNS):
        assert sorted(imm_terms(v, fast)) == sorted(per_w_terms(v, slow)), v
        assert fast.stats() == slow.stats(), v
    assert pairs_of(fast) == slow.values
    assert fast.stats() == {"n": 6, "entries": 43693, "hits": 224640,
                            "misses": 43693}


@st.composite
def below_queries(draw, n):
    """
    Positions (x, y): one y in S_n and a few x below it, made by undoing
    inversions of y.
    """
    y = draw(st.permutations(list(range(1, n + 1))).map(tuple))
    xs = []
    for swaps in draw(st.lists(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
            min_size=1, max_size=3)):
        x = list(y)
        for i, j in swaps:
            if i < j and x[i] > x[j]:
                x[i], x[j] = x[j], x[i]
        xs.append(tuple(x))
    index = perm.bruhat_table(n).index
    return [(index[x], index[y]) for x in xs]


@given(below_queries(7))
@settings(max_examples=25, deadline=None)
def test_kl_at_matches_the_every_candidate_oracle_on_s7(queries):
    _agrees_with_the_every_candidate_oracle(7, queries)


def test_rows_follow_the_store_through_save_and_load(tmp_path):
    # A loaded row serves the fill as the row it was saved from: the fill
    # reads its mu bits off its classes.  The halves are every other y,
    # so each holds long y as well as short ones, and the loaded half
    # holds the one value of S_5 whose mu sits past an inner zero (1 + q^2
    # at l(y) - l(x) = 5).
    size = 120
    full = KLCache(5)
    for y in range(size):
        for x in range(size):
            kl_at(full, x, y)
    half = KLCache(5)
    for y in range(0, size, 2):
        for x in range(size):
            kl_at(half, x, y)
    path = str(tmp_path / "kl.s5.json")
    half.save(path)
    assert KLCache.load(path)._rows == half._rows
    lengths = half.table.lengths
    assert any(p.coeffs == (1, 0, 1) and lengths[y] - lengths[x] == 5
               for y, row in half._rows.items() for p, bits in row.items()
               for x in perm.iter_bits(bits))
    rest = KLCache.load(path)
    for y in range(1, size, 2):
        for x in range(size):
            kl_at(rest, x, y)
    assert rest._rows == full._rows
    # A cache that only ever hits counts one hit per pair, through kl_at
    # or through imm_terms, which reads each stored row once.
    full.save(path)
    warm = KLCache.load(path)
    for y in range(size):
        for x in range(size):
            kl_at(warm, x, y)
    for v in symmetric_group(5):
        imm_terms(v, warm)
    assert warm.misses == 0 and warm.hits == 2 * len(full)


def test_uncached_values_past_the_table_guard_are_rejected():
    e = identity(8)
    assert kl_polynomial(e, e) == ONE
    assert kl_polynomial(longest_element(8), e) == ZERO
    with pytest.raises(SizeGuardError):
        kl_polynomial(e, (2, 1, 3, 4, 5, 6, 7, 8))


def test_cached_values_past_the_table_guard_are_rejected_too(tmp_path):
    # Past the guard no cache file loads, so no stored value can answer
    # what the recursion could not check; a cache for S_8 still answers
    # the pairs that need no table.
    e, s1 = identity(8), (2, 1, 3, 4, 5, 6, 7, 8)
    path = tmp_path / "kl.s8.json"
    path.write_text(json.dumps(_format2(8, [[1]], {"21345678": {"0": "1"}})))
    with pytest.raises(ValueError, match="kl.s8.json"):
        KLCache.load(str(path))
    cache = KLCache(8)
    assert kl_polynomial(s1, s1, cache) == ONE
    assert kl_polynomial(s1, e, cache) == ZERO
    with pytest.raises(SizeGuardError):
        kl_polynomial(e, s1, cache)


def test_a_cache_serves_only_its_own_size(tmp_path):
    # A cache for S_5 asked for an S_4 value must refuse it rather than
    # store it, or its file would hold an entry that load rejects.
    cache = KLCache(5)
    with pytest.raises(SizeMismatchError):
        kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    assert len(cache) == 0
    kl_polynomial((1, 3, 2, 4, 5), (3, 4, 1, 2, 5), cache)
    cache.save(str(tmp_path / "kl.s5.json"))
    assert len(KLCache.load(str(tmp_path / "kl.s5.json"))) == len(cache)


def test_bruhat_table_is_a_module_level_lru_cache():
    # A memo of this kind, bound at module level, is what a benchmark
    # harness can find and clear to make every run cold.
    assert isinstance(perm.bruhat_table, functools._lru_cache_wrapper)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_bound_constant_term_and_small_intervals(n):
    cache = KLCache(n)
    for x in symmetric_group(n):
        for y in symmetric_group(n):
            if not bruhat_leq(x, y):
                assert kl_polynomial(x, y, cache) == ZERO
                continue
            p = kl_polynomial(x, y, cache)
            gap = length(y) - length(x)
            assert coeff(p, 0) == 1
            assert all(c >= 0 for c in p.coeffs)
            assert 2 * degree(p) <= max(gap - 1, 0)
            if gap <= 2:
                assert p == ONE


def mu_coefficient(x, y, cache=None) -> int:
    """The mu-coefficient: coefficient of q^((l(y)-l(x)-1)/2) in P_{x,y}."""
    gap = length(y) - length(x)
    if gap <= 0 or gap % 2 == 0:
        return 0
    return coeff(kl_polynomial(x, y, cache), (gap - 1) // 2)


def test_mu_coefficient(kl_cache_s4):
    # mu is the top allowed coefficient; for the 1+q pair it equals 1
    assert mu_coefficient((1, 3, 2, 4), (3, 4, 1, 2), kl_cache_s4) == 1
    assert mu_coefficient((1, 2, 3, 4), (2, 1, 3, 4), kl_cache_s4) == 1
    assert mu_coefficient((1, 2, 3, 4), (1, 2, 3, 4), kl_cache_s4) == 0


def test_cache_counters_and_referential_transparency():
    cache = KLCache(4)
    first = kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    hits_before = cache.hits
    second = kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    assert first == second
    assert cache.hits > hits_before
    assert cache.stats()["entries"] == len(cache)


def test_cache_save_load_round_trip(tmp_path):
    cache = KLCache(4)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    path = tmp_path / "kl.s4.json"
    cache.save(str(path))
    # crash safety: the write went through a temp file, no stray leftovers
    assert [p.name for p in tmp_path.iterdir()] == ["kl.s4.json"]
    loaded = KLCache.load(str(path))
    assert loaded.n == 4
    assert kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), loaded) == \
        IntPolynomial((1, 1))
    assert (loaded.hits, loaded.misses) == (1, 0)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2 and doc["n"] == 4


def test_cache_save_keeps_the_old_file_when_the_rename_fails(tmp_path,
                                                             monkeypatch):
    cache = KLCache(4)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    path = tmp_path / "kl.s4.json"
    cache.save(str(path))
    before = path.read_bytes()
    kl_polynomial((1, 2, 3, 4), (4, 3, 1, 2), cache)

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        cache.save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["kl.s4.json"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_cache_save_gives_the_file_the_mode_open_would(tmp_path, umask, mode):
    cache = KLCache(4)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cache)
    old = os.umask(umask)
    try:
        cache.save(str(tmp_path / "kl.s4.json"))
        (tmp_path / "r.json").write_text("{}")
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"kl.s4.json": mode, "r.json": mode}


def test_cache_rejects_unknown_format(tmp_path):
    path = tmp_path / "kl.json"
    path.write_text(json.dumps({"n": 4, "format_version": 99, "table": {}}))
    with pytest.raises(ValueError):
        KLCache.load(str(path))


def test_cache_path_per_n():
    assert cache_path_for("/x/kl.json", 5) == "/x/kl.s5.json"
    assert cache_path_for("cache", 4) == "cache.s4.json"


def test_recursion_rejects_a_corrupt_cache_entry():
    # P_{123,213} = 1; a cache holding 2 makes P_{123,231} = 2, whose
    # constant term breaks a property every KL polynomial has.
    # P_{123,231} has no q-term, so it is the stored P_{123,213}, which
    # is checked all the same.
    cache = store_holding(3, {((1, 2, 3), (2, 1, 3)): [2]})
    with pytest.raises(ArithmeticError, match="constant term"):
        kl_polynomial((1, 2, 3), (2, 3, 1), cache)


def test_a_miss_with_no_q_term_has_no_mu_sum_candidates():
    # The two facts a miss relies on to take lo, hi and to skip the
    # mu-sum: x has the descent s iff x s comes before x in the table
    # (lexicographic order), and when hi is not below ys no z with
    # x <= z <= ys has the descent s.
    for n in range(2, 7):
        t = perm.bruhat_table(n)
        for y in range(1, len(t.perms)):
            i = t.first_descent[y]
            ys, descents = t.times_s[i][y], t.descents[i]
            for x in perm.iter_bits(t.below[y] ^ 1 << y):
                xs = t.times_s[i][x]
                assert descents >> x & 1 == (xs < x)
                if not t.below[ys] >> max(x, xs) & 1:
                    assert not t.below[ys] & t.above[x] & descents


def test_recursion_reads_an_empty_stored_value_as_constant_term_0():
    # No file loads into an empty value, but one in the store must still
    # fail a check rather than an index.
    cache = store_holding(3, {((1, 2, 3), (2, 1, 3)): []})
    with pytest.raises(ArithmeticError, match="P_123,231 has constant term 0"):
        kl_polynomial((1, 2, 3), (2, 3, 1), cache)


@pytest.mark.parametrize("x", [(1, 2, 3, 4), (2, 1, 3, 4)])
def test_recursion_checks_a_stored_value_it_reuses(x):
    # P_{x,4132} has no q-term, so no mu-term either: it is the stored
    # P_{1234,1432} (x or x s_1 is 1234).  A corrupt 1 - q there meets
    # the degree bound of both pairs; its sign must still be seen.  Either
    # pair fills the whole row of 4132, which names its lowest offending
    # x, 1234.
    cache = store_holding(4, {((1, 2, 3, 4), (1, 4, 3, 2)): [1, -1]})
    message = "negative coefficient in P_1234,4132"
    with pytest.raises(ArithmeticError, match=message):
        kl_polynomial(x, (4, 1, 3, 2), cache)


def test_recursion_rejects_a_cached_term_past_the_degree_bound():
    # The corrupt term is longer than any polynomial the recursion could
    # build at this pair; it must fail a check, not index past a list.
    cache = store_holding(3, {((1, 2, 3), (2, 1, 3)): [1, 0, 0, 5]})
    with pytest.raises(ArithmeticError):
        kl_polynomial((1, 2, 3), (2, 3, 1), cache)


def test_recursion_bounds_the_degree_by_the_length_gap_of_the_pair():
    # P_{132,231} = P_{123,213}, read as its first descent term.  A
    # corrupt 1 + q there has degree 1, where l(231) - l(132) = 1 allows
    # 0; the bound counts l(x) against l(y), not with it.
    cache = store_holding(3, {((1, 2, 3), (2, 1, 3)): [1, 1]})
    with pytest.raises(ArithmeticError, match="degree bound"):
        kl_polynomial((1, 3, 2), (2, 3, 1), cache)


@pytest.mark.parametrize("corrupt,x,y,message", [
    # mu(2314, 2341) = 2 subtracts 2q where 1 + q needs q taken away, so
    # P_{1234,2431} comes out as 1 - q.
    ([2], (1, 2, 3, 4), (2, 4, 3, 1), "negative coefficient"),
    # mu is still 1, but the 3q comes back in P_{2134,2431} through its
    # descent term q P_{2314,2341}, past that pair's degree bound.
    ([1, 3], (2, 1, 3, 4), (4, 2, 3, 1), "degree bound"),
])
def test_recursion_rejects_a_corrupt_mu_sum_candidate(corrupt, x, y, message):
    # The corrupt entry is first read as the mu-sum candidate P_{z,ys} of
    # P_{1234,2431}, straight from the store; the checks must see it all
    # the same.
    cache = store_holding(4, {((2, 3, 1, 4), (2, 3, 4, 1)): corrupt})
    with pytest.raises(ArithmeticError, match=message):
        kl_polynomial(x, y, cache)


@pytest.mark.parametrize("corrupt,x,y,message", [
    # P_{123,312} = P_{123,132}, so a corrupt 1 + q, read as the first
    # descent term, gives degree 1 where l(312) - l(123) = 2 allows 0.
    ({((1, 2, 3), (1, 3, 2)): [1, 1]}, (1, 2, 3), (3, 1, 2), "degree bound"),
    # P_{213,321} = P_{123,231} + q P_{213,231} - q: the corrupt 1 + 3q
    # is first read as the second descent term and brings in 3q^2.
    ({((2, 1, 3), (2, 3, 1)): [1, 3]}, (2, 1, 3), (3, 2, 1), "degree bound"),
    # P_{1234,4312} takes mu(3214, 3412) = 1 times q P_{1234,3214}; a
    # corrupt 2 there, first read as that mu-term, leaves 1 - q.
    ({((1, 2, 3, 4), (3, 2, 1, 4)): [2]}, (1, 2, 3, 4), (4, 3, 1, 2),
     "negative coefficient"),
    # The same mu-term read as a corrupt 1 + q^4, longer than the sum so
    # far: the list grows to fit it, and q^5 comes out negative.
    ({((1, 2, 3, 4), (3, 2, 1, 4)): [1, 0, 0, 0, 1]}, (1, 2, 3, 4),
     (4, 3, 1, 2), "negative coefficient"),
], ids=["first-descent-term", "second-descent-term", "mu-term",
        "long-mu-term"])
def test_recursion_rejects_a_corrupt_term_read_inline(corrupt, x, y, message):
    # A miss reads its terms straight from the store, not through a
    # recursive call; the sum they make is checked all the same.
    cache = store_holding(len(x), corrupt)
    with pytest.raises(ArithmeticError, match=message):
        kl_polynomial(x, y, cache)


def _walk_in_ascending_x(v, oracle):
    """The row of y = w0 v pair by pair: one oracle call per x below y,
    in ascending x."""
    table = oracle.table
    y = len(table.perms) - 1 - table.index[v]
    for x in perm.iter_bits(table.below[y]):
        kl_at_every_candidate(oracle, x, y)


def _raised(call, v, cache):
    try:
        call(v, cache)
    except ArithmeticError as error:
        return str(error)
    return None


@pytest.mark.parametrize("corrupt,message", [
    ([2], "has constant term 2"),
    ([1, -1], "negative coefficient"),
    ([1, 0, 0, 0, 0, 1], "degree bound violated"),
], ids=["constant-term", "negative", "degree"])
def test_row_fill_raises_the_recursion_error_for_a_corrupt_dependency(
        corrupt, message):
    # Corrupt pairs in the row of ys, the row a fill reads whole first,
    # for every y of S_4 (s its first descent): one pair at a time, and
    # the whole row at once, where several parts fail and the lowest x
    # must be named.  imm_terms, which fills the empty row of y, raises
    # what the every-candidate oracle raises pair by pair, in ascending
    # x, on the same rows, or passes where it passes (a q-term with a
    # corrupt constant term can still make a KL polynomial).
    table = perm.bruhat_table(4)
    top, raised = len(table.perms) - 1, []
    for v in table.perms[:-1]:
        y = top - table.index[v]
        ys = table.times_s[table.first_descent[y]][y]
        row = list(perm.iter_bits(table.below[ys] ^ 1 << ys))
        for pairs in [[u] for u in row] + [row]:
            entries = {(table.perms[u], table.perms[ys]): corrupt
                       for u in pairs}
            cache = store_holding(4, entries)
            oracle = Oracle(4, pairs_of(cache))
            error = _raised(imm_terms, v, cache)
            assert error == _raised(_walk_in_ascending_x, v, oracle), (v,
                                                                      pairs)
            raised.append(error)
    assert any(message in error for error in raised if error)


@st.composite
def kl_calls(draw, n):
    """
    A mix of ("pair", x, y) for kl_at, x mostly below y, and ("row", v)
    for imm_terms, over S_n.
    """
    table = perm.bruhat_table(n)
    size = len(table.perms)

    def pair(y, pick):
        below = list(perm.iter_bits(table.below[y]))
        return "pair", below[pick % len(below)], y

    pairs = st.builds(pair, st.integers(0, size - 1), st.integers(0, 10 ** 6))
    rows = st.tuples(st.just("row"), st.sampled_from(table.perms))
    return draw(st.lists(st.one_of(pairs, rows), min_size=1,
                         max_size=4 if n > 5 else 10))


def _loaded_with_its_oracle(n, warm_up, share, rng):
    """
    A cache loaded from a file of a random share of the whole rows that
    the kl_at calls ``warm_up`` stored, and an oracle holding the same.
    """
    source = KLCache(n)
    for _, x, y in warm_up:
        kl_at(source, x, y)
    part = KLCache(n)
    part._rows.update(item for item in source._rows.items()
                      if rng.random() < share)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"kl.s{n}.json")
        part.save(path)
        return KLCache.load(path), Oracle(n, pairs_of(part))


def _agrees_with_the_per_pair_path(fast, slow, calls):
    """
    ``calls`` through kl_at and imm_terms on ``fast``, and through the
    oracle on ``slow``, one call per w for a row: values, counts after
    every call and stores must agree.
    """
    for call in calls:
        if call[0] == "pair":
            assert kl_at(fast, *call[1:]) == kl_at_by_rows(slow, *call[1:]), \
                call
        else:
            assert (sorted(imm_terms(call[1], fast))
                    == sorted(per_w_terms(call[1], slow))), call
        assert fast.stats() == slow.stats(), call
    assert pairs_of(fast) == slow.values


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3, 4, 5]), loaded=st.booleans(),
       share=st.floats(0, 1), rng=st.randoms(use_true_random=False))
def test_row_fill_counts_like_the_per_pair_path(data, n, loaded, share, rng):
    calls = data.draw(kl_calls(n))
    if loaded:
        warm_up = [c for c in data.draw(kl_calls(n)) if c[0] == "pair"]
        fast, slow = _loaded_with_its_oracle(n, warm_up, share, rng)
    else:
        fast, slow = KLCache(n), Oracle(n)
    _agrees_with_the_per_pair_path(fast, slow, calls)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), loaded=st.booleans(), share=st.floats(0, 1),
       rng=st.randoms(use_true_random=False))
def test_row_fill_counts_like_the_per_pair_path_on_s6(data, loaded, share,
                                                      rng):
    calls = data.draw(kl_calls(6))
    if loaded:
        warm_up = [c for c in data.draw(kl_calls(6)) if c[0] == "pair"]
        fast, slow = _loaded_with_its_oracle(6, warm_up, share, rng)
    else:
        fast, slow = KLCache(6), Oracle(6)
    _agrees_with_the_per_pair_path(fast, slow, calls)


def test_cold_rows_of_every_s7_avoider_are_pinned(tmp_path):
    # Pinned from the pair-by-pair recursion walking each row in
    # ascending x: the row fill must store, count and save exactly what
    # it stored and counted.
    cache = KLCache(7)
    for v in _avoiders(7, FORBIDDEN_PATTERNS):
        imm_terms(v, cache)
    assert cache.stats() == {"n": 7, "entries": 905189, "hits": 14080902,
                             "misses": 905189}
    path = tmp_path / "kl.s7.json"
    cache.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "058f0070db6af17f3c015e562064c48e8c8f7ee7a85836509d1a5cf0f533b0a4")


def _cold_s5_cache():
    cache = KLCache(5)
    for y in symmetric_group(5):
        kl_polynomial(identity(5), y, cache)
    return cache


def _format2(n, values, rows):
    """A cache document in the format save writes, built by hand."""
    return {"n": n, "format_version": 2, "values": values, "rows": rows}


def _bitset(*words):
    """The hex bitset of these compact words' table positions."""
    index = perm.bruhat_table(len(words[0])).index
    return format(sum(1 << index[tuple(map(int, w))] for w in words), "x")


def _entries(pairs):
    """{"x|y": coefficients} as the {(x, y): coefficients} of store_holding."""
    return {tuple(tuple(map(int, w)) for w in key.split("|")): coeffs
            for key, coeffs in pairs.items()}


@pytest.mark.parametrize("last_key", ["13245|11345", "11345|54321"])
def test_cache_load_validates_the_words_of_the_last_key(tmp_path, last_key):
    # Every earlier row is keyed by a word of S_5; the one malformed key
    # comes last, so a load that stopped validating row words early would
    # accept the file.
    path = tmp_path / "kl.s5.json"
    _cold_s5_cache().save(str(path))
    doc = json.loads(path.read_text())
    doc["rows"][last_key] = {"0": "1"}
    path.write_text(json.dumps(doc))
    assert list(json.loads(path.read_text())["rows"])[-1] == last_key
    with pytest.raises(ValueError,
                       match=re.escape(f"cache row {last_key} in {path} ")):
        KLCache.load(str(path))


def test_cold_s5_cache_round_trips_exactly(tmp_path):
    cache = _cold_s5_cache()
    first, second = tmp_path / "a.s5.json", tmp_path / "b.s5.json"
    cache.save(str(first))
    loaded = KLCache.load(str(first))
    assert loaded.n == 5 and len(loaded) == len(cache) > 900
    loaded.save(str(second))
    assert first.read_bytes() == second.read_bytes()
    for y in symmetric_group(5):
        assert kl_polynomial(identity(5), y, loaded) == \
            kl_polynomial(identity(5), y, cache)
    assert loaded.misses == 0


@pytest.fixture(scope="module")
def cold_rows():
    """The rows of a cold cache asked for every pair of S_n, n = 4 and 5,
    built once before any example runs."""
    rows = {}
    for n in (4, 5):
        cache = KLCache(n)
        size = len(cache.table.perms)
        for y in range(size):
            for x in range(size):
                kl_at(cache, x, y)
        rows[n] = tuple(cache._rows.items())
    return rows


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 5]), share=st.floats(0, 1),
       rng=st.randoms(use_true_random=False))
def test_save_and_load_round_trip_any_sub_store(cold_rows, n, share, rng):
    # A random share of the whole rows of a cold store, inserted in random
    # order: load gives back the same rows, and the bytes depend on the
    # rows alone, not on the order the store holds them in.
    items = [item for item in cold_rows[n] if rng.random() < share]
    rng.shuffle(items)
    cache = KLCache(n)
    cache._rows.update(items)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, f"{name}.s{n}.json")
                         for name in "ab")
        cache.save(first)
        loaded = KLCache.load(first)
        assert loaded._rows == cache._rows
        in_order = KLCache(n)
        in_order._rows.update(sorted(items, key=lambda item: item[0]))
        in_order.save(second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def test_cold_s5_save_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    # save sorts a set of value classes; the file must not follow the
    # order that string hashing gives sets and dicts in one process.
    script = ("import sys\n"
              "from klimm.klpoly import KLCache, kl_at\n"
              "cache = KLCache(5)\n"
              "for y in range(120):\n"
              "    for x in range(120):\n"
              "        kl_at(cache, x, y)\n"
              "cache.save(sys.argv[1])\n")
    src = str(pathlib.Path(perm.__file__).parents[1])
    written = []
    for seed in ("0", "1"):
        path = tmp_path / f"seed{seed}.s5.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                       check=True, timeout=120)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["format_version"] == 2


def test_cache_load_rejects_entries_of_another_size(tmp_path):
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps(_format2(4, [[1, 1]], {"34125": {"0": "4"}})))
    with pytest.raises(ValueError, match=re.escape(f"cache row 34125 in {path} ")):
        KLCache.load(str(path))


def test_cache_load_refuses_a_format_1_file_with_a_hint(tmp_path):
    # Format 1 held one "x|y" key per pair.  No reader for it is kept: the
    # file is refused, and deleting it makes the next run rebuild it.
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps({"n": 4, "format_version": 1,
                                "table": {"1324|3412": [1, 1]}}))
    with pytest.raises(ValueError, match=re.escape(
            f"unsupported cache format in {path}: delete the file")):
        KLCache.load(str(path))


# Documents refused before any entry is read; the error names the file.
MALFORMED_CACHE_DOCS = {
    "document-is-a-list": [],
    "n-missing": {"format_version": 2, "values": [], "rows": {}},
    "n-not-an-int": _format2(4.0, [[1, 1]], {"3412": {"0": _bitset("1324")}}),
    "table-not-an-object": _format2(4, [[1, 1]], []),
    "values-not-a-list": _format2(4, {"0": [1, 1]}, {}),
    # Rows are keyed only by the compact words save writes.
    "key-not-x|y": _format2(4, [[1]], {"1324|3412|4321": {"0": "1"}}),
    "key-comma-words": _format2(4, [[1, 1]], {"3,4,1,2": {"0": "4"}}),
    "key-padded-words": _format2(4, [[1]], {" 2143 ": {"0": "1"}}),
    # A value is named where an entry uses it, as a list of ints.
    "coefficient-a-string": _format2(4, [["a"]], {"3412": {"0": "4"}}),
    "coefficient-a-float": _format2(4, [[1.5]], {"3412": {"0": "4"}}),
    "coefficient-a-bool": _format2(4, [[True]], {"3412": {"0": "4"}}),
    "value-not-a-list": _format2(4, [2], {"3412": {"0": "4"}}),
    "n-past-the-table-guard": _format2(8, [[1]], {"21345678": {"0": "1"}}),
}

NOT_BELOW = "is not a pair x < y in Bruhat order"
NOT_KL = "is not a KL polynomial"

# Stores that save writes as they are and load refuses, each with the
# entry the error names (x|y at the lowest offending bit) and why.
CORRUPT_CACHE_STORES = {
    # The recursion stores only pairs x < y and never reads any other, so
    # such an entry could only be counted and saved back.  The degree
    # bound refuses a pair with l(x) >= l(y) as well, and an incomparable
    # pair with l(x) < l(y) only the Bruhat test refuses.
    "pair-above": ({"1324|3412": [1, 1], "4321|1234": [7]}, "4321|1234",
                   NOT_BELOW),
    "pair-equal": ({"1324|3412": [1, 1], "1234|1234": [5]}, "1234|1234",
                   NOT_BELOW),
    "pair-incomparable": ({"1324|3412": [1, 1], "3124|1432": [1]},
                          "3124|1432", NOT_BELOW),
    # Loaded values pass the checks the recursion puts on its own.
    "value-constant-term-2": ({"1324|3412": [2]}, "1324|3412", NOT_KL),
    "value-empty": ({"1324|3412": []}, "1324|3412", NOT_KL),
    "value-negative": ({"1324|3412": [1, -1]}, "1324|3412", NOT_KL),
    "value-past-the-degree-bound": ({"1324|3412": [1, 0, 1]}, "1324|3412",
                                    NOT_KL),
    # Degree 2 where l(y) - l(x) = 4 allows 1: past the bound by one.
    "value-one-past-the-degree-bound": ({"1234|3412": [1, 0, 1],
                                         "1324|3412": [1, 1]},
                                        "1234|3412", NOT_KL),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHE_DOCS.keys()
                                        | CORRUPT_CACHE_STORES.keys()))
def test_cache_load_rejects_a_malformed_document(tmp_path, name):
    path = tmp_path / "kl.s4.json"
    if name in CORRUPT_CACHE_STORES:
        pairs, entry, why = CORRUPT_CACHE_STORES[name]
        store_holding(4, _entries(pairs)).save(str(path))
        named = f"cache entry {entry} in {path} {why}"
    else:
        path.write_text(json.dumps(MALFORMED_CACHE_DOCS[name]))
        named = str(path)
    with pytest.raises(ValueError, match=re.escape(named)):
        KLCache.load(str(path))


# Rows that load refuses before reading their entries, each put last in
# a saved S_4 cache whose other rows are well formed: (row, classes).
MALFORMED_ROWS = {
    "row-not-an-object": ("4321", ["1"]),
    "class-past-the-values": ("4321", {"2": "1"}),
    "class-zero-padded": ("4321", {"01": "1"}),
    "bitset-empty": ("4321", {"0": "0"}),
    "bitset-zero-padded": ("4321", {"0": "01"}),
    "bitset-0x": ("4321", {"0": "0x1"}),
    "bitset-uppercase": ("4321", {"0": "F"}),
    "bitset-negative": ("4321", {"0": "-1"}),
    "bitset-padded": ("4321", {"0": " 1"}),
    "bitset-not-hex": ("4321", {"0": "z"}),
    "bitset-a-number": ("4321", {"0": 1}),
    "bitset-past-the-table": ("4321", {"0": format(1 << 24, "x")}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ROWS))
def test_cache_load_names_a_malformed_row(tmp_path, name):
    path = tmp_path / "kl.s4.json"
    store_holding(4, _entries({"1324|3412": [1, 1], "1234|2143": [1]})).save(
        str(path))
    doc = json.loads(path.read_text())
    word, classes = MALFORMED_ROWS[name]
    doc["rows"][word] = classes
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"cache row {word} in {path} ")):
        KLCache.load(str(path))


def test_cache_load_refuses_a_pair_in_two_classes(tmp_path):
    # P_{1234,3412} = 1 + q; the file also puts 1234 in the class of 1 in
    # the same row, so the pair would take whichever class came last.
    path = tmp_path / "kl.s4.json"
    store_holding(4, _entries({"1234|3412": [1, 1]})).save(str(path))
    doc = json.loads(path.read_text())
    row = doc["rows"]["3412"]
    assert doc["values"] == [[1], [1, 1]]
    assert row["1"] == _bitset("1234", "1324")
    row["0"] = format(int(row["0"], 16) | int(_bitset("1234"), 16), "x")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"cache entry 1234|3412 in {path} sits in two classes")):
        KLCache.load(str(path))


@pytest.mark.parametrize("bad", [[True], [1, True], [1.0], ["1"], 1, "1",
                                 {"0": 1}, None, [[1]]],
                         ids=repr)
def test_cache_load_names_the_entry_with_bad_coefficients(tmp_path, bad):
    # Every other value is well formed, before and after the bad one, and
    # so is every other row, so the check must name the one entry in the
    # bad value's class.
    path = tmp_path / "kl.s4.json"
    store_holding(4, _entries({"1234|2143": [1], "1324|4321": [1, 1],
                               "1234|4321": [1, 2]})).save(str(path))
    doc = json.loads(path.read_text())
    assert doc["values"] == [[1], [1, 1], [1, 2]]
    doc["values"][1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"cache entry 1324\|4321 "):
        KLCache.load(str(path))


# What `klimm kl 1324 3412 --kl-cache kl.json` wrote for S_4 while the
# recursion stored pairs one at a time: the rows of 1342, 3142 and 3412
# hold only the pairs that one query needed.
PARTIAL_ROWS_S4 = _format2(4, [[1], [1, 1]], {
    "1324": {"0": "1"}, "1342": {"0": "5"}, "3142": {"0": "5"},
    "3412": {"1": "4"}})


def test_load_and_the_cli_refuse_a_partial_row(tmp_path, capsys):
    # The engine reads and stores whole rows only, so a row missing a pair
    # has no class to answer it from; the file is refused, not
    # mis-answered, and deleting it, as the hint says, lets the next run
    # rebuild it.
    path, base = tmp_path / "kl.s4.json", str(tmp_path / "kl.json")
    path.write_text(json.dumps(PARTIAL_ROWS_S4))
    hint = (f"cache row 1342 in {path} is not a whole row: delete the file "
            "and the next run rebuilds it")
    with pytest.raises(ValueError, match=re.escape(hint)):
        KLCache.load(str(path))
    before = path.read_bytes()
    assert main(["kl", "1324", "3412", "--kl-cache", base]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {hint}\n"
    assert path.read_bytes() == before
    path.unlink()
    assert main(["kl", "1324", "3412", "--kl-cache", base]) == 0
    assert capsys.readouterr().out.startswith("1 + q\n")
    cold = KLCache(4)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), cold)
    assert KLCache.load(str(path))._rows == cold._rows


def test_registry_rejects_a_file_named_for_another_size(tmp_path):
    cache = KLCache(5)
    kl_polynomial((1, 3, 2, 4, 5), (3, 4, 1, 2, 5), cache)
    cache.save(str(tmp_path / "kl.s4.json"))
    with pytest.raises(ValueError):
        KLCacheRegistry(str(tmp_path / "kl.json")).for_n(4)


def test_registry_writes_back_only_grown_caches(tmp_path, monkeypatch):
    base = str(tmp_path / "kl.json")
    first = KLCacheRegistry(base)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), first.for_n(4))
    first.for_n(3)  # stays empty, so no file
    first.persist()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kl.s4.json"]

    saved = []
    monkeypatch.setattr(KLCache, "save",
                        lambda cache, path: saved.append((cache.n, path)))
    again = KLCacheRegistry(base)
    kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), again.for_n(4))
    again.persist()
    assert saved == []  # every lookup hit: nothing to write
    kl_polynomial((1, 2, 3, 4), (4, 3, 2, 1), again.for_n(4))
    again.persist()
    assert saved == [(4, cache_path_for(base, 4))]
