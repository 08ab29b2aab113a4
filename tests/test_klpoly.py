import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kl_at_one
from kl_every_candidate import kl_at_every_candidate
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
from klimm import immanant, perm
from klimm.errors import SizeGuardError, SizeMismatchError
from klimm.klpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    KLCache,
    KLCacheRegistry,
    cache_path_for,
    kl_at,
    kl_polynomial,
)
from klimm.perm import (
    avoids,
    bruhat_leq,
    format_perm,
    identity,
    length,
    longest_element,
    symmetric_group,
)
from klimm.suites import Config, run_suite


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
    assert run_suite("prop-3.1", Config(max_n=6, samples=1, seed=0)).ok
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
    Run ``queries``, pairs of table positions, through ``kl_at`` and the
    every-candidate oracle, each on a cold cache of its own: the values,
    the counts after every query and the final stores must agree.
    """
    fast, slow = KLCache(n), KLCache(n)
    for x, y in queries:
        assert kl_at(fast, x, y) == kl_at_every_candidate(slow, x, y), (x, y)
        assert fast.stats() == slow.stats(), (x, y)
    assert fast._values == slow._values
    return fast


@pytest.mark.parametrize("n", [4, 5])
def test_kl_at_matches_the_every_candidate_oracle_on_all_pairs(n):
    size = len(perm.bruhat_table(n).perms)
    _agrees_with_the_every_candidate_oracle(
        n, [(x, y) for y in range(size) for x in range(size)])


def test_kl_at_matches_the_every_candidate_oracle_in_prop31_order(
        monkeypatch):
    queries = []

    def recording(cache, x, y):
        if cache.n == 6:
            queries.append((x, y))
        return kl_at(cache, x, y)

    monkeypatch.setattr(immanant, "kl_at", recording)
    assert run_suite("prop-3.1", Config(max_n=6, samples=1, seed=0)).ok
    cache = _agrees_with_the_every_candidate_oracle(6, queries)
    assert cache.stats() == {"n": 6, "entries": 43693, "hits": 224640,
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


def _rows_from_the_store(cache):
    """(known, mu) recomputed pair by pair from the store of ``cache``."""
    perms = cache.table.perms
    size = len(perms)
    known, mu = [0] * size, [0] * size
    for key, p in cache._values.items():
        y, x = divmod(key, size)
        known[y] |= 1 << x
        gap = length(perms[y]) - length(perms[x])
        if gap % 2 and coeff(p, (gap - 1) // 2) != 0:
            mu[y] |= 1 << x
    return known, mu


def test_rows_follow_the_store_through_save_and_load(tmp_path):
    # Rows are built from the store at a cache's first miss and kept up
    # to date by kl_at; a loaded cache builds them from what it loaded.
    # The halves are every other y, so each holds long y as well as short
    # ones, and the loaded half holds the one value of S_5 whose mu sits
    # past an inner zero (1 + q^2 at l(y) - l(x) = 5).
    size = 120
    full = KLCache(5)
    for y in range(size):
        for x in range(size):
            kl_at(full, x, y)
    half = KLCache(5)
    for y in range(0, size, 2):
        for x in range(size):
            kl_at(half, x, y)
    assert half.rows == _rows_from_the_store(half)
    path = str(tmp_path / "kl.s5.json")
    half.save(path)
    assert KLCache.load(path).rows == _rows_from_the_store(half)
    rest = KLCache.load(path)
    for y in range(1, size, 2):
        for x in range(size):
            kl_at(rest, x, y)
    assert rest._values == full._values
    assert rest.rows == _rows_from_the_store(rest)
    # A cache that only ever hits never builds them.
    full.save(path)
    warm = KLCache.load(path)
    for y in range(size):
        for x in range(size):
            kl_at(warm, x, y)
    assert warm.misses == 0 and warm.hits == len(full)
    assert "rows" not in vars(warm)


def test_uncached_values_past_the_table_guard_are_rejected():
    e = identity(8)
    assert kl_polynomial(e, e) == ONE
    assert kl_polynomial(longest_element(8), e) == ZERO
    with pytest.raises(SizeGuardError):
        kl_polynomial(e, (2, 1, 3, 4, 5, 6, 7, 8))


def _cache_holding(tmp_path, n, entries):
    """A cache loaded from a file holding {(x, y): coefficients}."""
    path = tmp_path / f"kl.s{n}.json"
    path.write_text(json.dumps({"n": n, "format_version": 1, "table": {
        f"{format_perm(x)}|{format_perm(y)}": coeffs
        for (x, y), coeffs in entries.items()}}))
    return KLCache.load(str(path))


def _store_holding(n, entries):
    """
    A cache whose store holds {(x, y): coefficients} as given.  Load
    refuses a value that is not a KL polynomial, so this is how a
    recursion test puts one where its own checks must meet it.
    """
    cache = KLCache(n)
    index, size = cache.table.index, len(cache.table.perms)
    for (x, y), coeffs in entries.items():
        cache._values[index[y] * size + index[x]] = IntPolynomial(tuple(coeffs))
    return cache


def test_cached_values_past_the_table_guard_are_rejected_too(tmp_path):
    # Past the guard no cache file loads, so no stored value can answer
    # what the recursion could not check; a cache for S_8 still answers
    # the pairs that need no table.
    e, s1 = identity(8), (2, 1, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ValueError, match="kl.s8.json"):
        _cache_holding(tmp_path, 8, {(e, s1): [1]})
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
    assert doc["format_version"] == 1 and doc["n"] == 4


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
    cache = _store_holding(3, {((1, 2, 3), (2, 1, 3)): [2]})
    with pytest.raises(ArithmeticError):
        kl_polynomial((1, 2, 3), (2, 3, 1), cache)


def test_recursion_rejects_a_cached_term_past_the_degree_bound():
    # The corrupt term is longer than any polynomial the recursion could
    # build at this pair; it must fail a check, not index past a list.
    cache = _store_holding(3, {((1, 2, 3), (2, 1, 3)): [1, 0, 0, 5]})
    with pytest.raises(ArithmeticError):
        kl_polynomial((1, 2, 3), (2, 3, 1), cache)


def test_recursion_bounds_the_degree_by_the_length_gap_of_the_pair():
    # P_{132,231} = P_{123,213}, read as its first descent term.  A
    # corrupt 1 + q there has degree 1, where l(231) - l(132) = 1 allows
    # 0; the bound counts l(x) against l(y), not with it.
    cache = _store_holding(3, {((1, 2, 3), (2, 1, 3)): [1, 1]})
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
    cache = _store_holding(4, {((2, 3, 1, 4), (2, 3, 4, 1)): corrupt})
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
], ids=["first-descent-term", "second-descent-term", "mu-term"])
def test_recursion_rejects_a_corrupt_term_read_inline(corrupt, x, y, message):
    # A miss reads its terms straight from the store, not through a
    # recursive call; the sum they make is checked all the same.
    cache = _store_holding(len(x), corrupt)
    with pytest.raises(ArithmeticError, match=message):
        kl_polynomial(x, y, cache)


def _cold_s5_cache():
    cache = KLCache(5)
    for y in symmetric_group(5):
        kl_polynomial(identity(5), y, cache)
    return cache


@pytest.mark.parametrize("last_key", ["13245|11345", "11345|54321"])
def test_cache_load_validates_the_words_of_the_last_key(tmp_path, last_key):
    # Every earlier key reuses the same few words; the one malformed word
    # comes last, so a load that stopped validating repeated words, or
    # validated only the first occurrences, would accept the file.
    path = tmp_path / "kl.s5.json"
    _cold_s5_cache().save(str(path))
    doc = json.loads(path.read_text())
    doc["table"][last_key] = [1]
    path.write_text(json.dumps(doc))
    assert list(json.loads(path.read_text())["table"])[-1] == last_key
    with pytest.raises(ValueError):
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


def test_cache_load_rejects_entries_of_another_size(tmp_path):
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps({"n": 4, "format_version": 1,
                                "table": {"13245|34125": [1, 1]}}))
    with pytest.raises(ValueError):
        KLCache.load(str(path))


MALFORMED_CACHE_DOCS = {
    "document-is-a-list": [],
    "n-missing": {"format_version": 1, "table": {}},
    "n-not-an-int": {"n": 4.0, "format_version": 1,
                     "table": {"1324|3412": [1, 1]}},
    "table-not-an-object": {"n": 4, "format_version": 1, "table": []},
    "key-not-x|y": {"n": 4, "format_version": 1,
                    "table": {"1324|3412|4321": [1]}},
    # Keys are read only in the compact form save writes.
    "key-comma-words": {"n": 4, "format_version": 1,
                        "table": {"1,3,2,4|3,4,1,2": [1, 1]}},
    "key-padded-words": {"n": 4, "format_version": 1,
                         "table": {" 1234 |2143": [1]}},
    "coefficient-a-string": {"n": 4, "format_version": 1,
                             "table": {"1324|3412": ["a"]}},
    "coefficient-a-float": {"n": 4, "format_version": 1,
                            "table": {"1324|3412": [1.5]}},
    "coefficient-a-bool": {"n": 4, "format_version": 1,
                           "table": {"1324|3412": [True]}},
    "value-not-a-list": {"n": 4, "format_version": 1,
                         "table": {"1324|3412": 2}},
    "n-past-the-table-guard": {"n": 8, "format_version": 1,
                               "table": {"12345678|21345678": [1]}},
    # The recursion stores only pairs x < y and never reads any other, so
    # such an entry could only be counted and saved back.
    "pair-above": {"n": 4, "format_version": 1,
                   "table": {"1324|3412": [1, 1], "4321|1234": [7]}},
    "pair-equal": {"n": 4, "format_version": 1,
                   "table": {"1324|3412": [1, 1], "1234|1234": [5]}},
    "pair-incomparable": {"n": 4, "format_version": 1,
                          "table": {"1324|3412": [1, 1], "2143|1342": [1]}},
    # Loaded values pass the checks the recursion puts on its own.
    "value-constant-term-2": {"n": 4, "format_version": 1,
                              "table": {"1324|3412": [2]}},
    "value-empty": {"n": 4, "format_version": 1, "table": {"1324|3412": []}},
    "value-negative": {"n": 4, "format_version": 1,
                       "table": {"1324|3412": [1, -1]}},
    "value-past-the-degree-bound": {"n": 4, "format_version": 1,
                                    "table": {"1324|3412": [1, 0, 1]}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CACHE_DOCS))
def test_cache_load_rejects_a_malformed_document(tmp_path, name):
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps(MALFORMED_CACHE_DOCS[name]))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        KLCache.load(str(path))


@pytest.mark.parametrize("bad", [[True], [1, True], [1.0], ["1"], 1, "1",
                                 {"0": 1}, None, [[1]]],
                         ids=repr)
def test_cache_load_names_the_entry_with_bad_coefficients(tmp_path, bad):
    # Every other entry is well formed, before and after the bad one, so
    # the one-pass type check must fall back to naming the right key.
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps({"n": 4, "format_version": 1, "table": {
        "1234|2143": [1], "1324|3412": bad, "2143|4321": [1, 1]}}))
    with pytest.raises(ValueError, match=r"cache entry 1324\|3412 "):
        KLCache.load(str(path))


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
