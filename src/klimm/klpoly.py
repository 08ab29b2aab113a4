"""
Kazhdan-Lusztig polynomials P_{x,y}(q) for the symmetric group.

They are computed by the classical recursion on a right descent of y,
fully memoized in a :class:`KLCache`.  It works on positions in the
cache's :func:`klimm.perm.bruhat_table`: comparisons, descents and their
products are table lookups, and the mu-sum candidates are the set bits of
one AND of table bitsets; the table, and so every value with x < y, is
guarded at n <= 7.  The cache's row bitsets say which candidates are
stored and which have mu != 0, so only those with mu != 0 are read one by
one.  Values are interned: equal coefficient tuples share one
:class:`IntPolynomial`.

A hit is a recursion term answered from the store: the pair asked for,
a descent term, a mu-term P_{x,z}, or a mu-sum candidate P_{z,ys} (the
stored ones are counted through the rows, all at once); :func:`imm_terms`
counts its reads of a Kazhdan-Lusztig row the same way.  A miss is a pair
computed and stored, by :func:`_kl_miss`, which with
:meth:`KLCache.load` is all that writes the store; no other module reads
it.  A miss whose only term is P_{lo,ys} reuses that value's
coefficients, checked like any others.

Conventions: P_{x,y} = 0 unless x <= y in Bruhat order, P_{y,y} = 1, and
for x < y the degree is at most (l(y) - l(x) - 1) / 2 with constant term
1 and nonnegative coefficients.  These facts are checked on every value
the recursion produces rather than assumed (the last two once per
distinct coefficient tuple, as they depend on nothing else).
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import SizeMismatchError
from .perm import (
    BRUHAT_TABLE_GUARD,
    BruhatTable,
    Perm,
    as_perm,
    bruhat_leq,
    bruhat_table,
    format_perm,
    iter_bits,
)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial in one variable q; coeffs[d] is the q^d coefficient."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        trimmed = tuple(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, value: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                power = "q" if d == 1 else f"q^{d}"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            terms.append(("-" if c < 0 else "+", body))
        sign, first = terms[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))

@lru_cache(maxsize=None)
def checked(coeffs: tuple[int, ...]) -> IntPolynomial | None:
    """
    The polynomial with these coefficients, or None if it lacks constant
    term 1 or has a negative coefficient.  Both depend on the tuple alone,
    so each distinct tuple (trailing zeros and all) is checked once, and
    its values share one polynomial: S_6 has 43,693 KL values but only 14
    distinct ones.
    """
    p = IntPolynomial(coeffs)
    return p if p.coeffs[:1] == (1,) and min(p.coeffs) >= 0 else None


CACHE_FORMAT_VERSION = 1


class KLCache:
    """Memo table for P_{x,y} over a single symmetric group S_n.

    Immutable values are stored by position in ``table``, the Bruhat
    table of S_n (built on first use); words appear only in the files of
    :meth:`save` and :meth:`load`.  Only :func:`_kl_miss` and
    :meth:`load` write the store, and ``rows`` mirrors it from the first
    miss on.  ``hits`` counts the recursion terms answered from the
    store, each stored mu-sum candidate among them, and the stored pairs
    :func:`imm_terms` reads; ``misses`` counts the pairs computed.
    The store is a plain dict, so use one writer at a time.  Persistence
    uses write-to-temp-then-rename so a crash cannot leave a torn file.
    """

    def __init__(self, n: int):
        self.n = n
        self._values: dict[int, IntPolynomial] = {}
        self.hits = 0
        self.misses = 0

    @cached_property
    def table(self) -> BruhatTable:
        return bruhat_table(self.n)

    @cached_property
    def rows(self) -> tuple[list[int], list[int]]:
        """
        Row bitsets (known, mu) over table positions: bit x of known[y] is
        set iff the store holds P_{x,y}, and bit x of mu[y] iff mu(x, y) is
        not 0: as both writers enforce the degree bound, iff the stored
        P_{x,y} has degree (l(y) - l(x) - 1) / 2, the test of
        :func:`_kl_miss`.  Built from the store at the first miss, after
        which :func:`_kl_miss` keeps them up to date; a cache that only
        ever hits never builds them.
        """
        size, lengths = len(self.table.perms), self.table.lengths
        known, mu = [0] * size, [0] * size
        for key, p in self._values.items():
            y, x = divmod(key, size)
            known[y] |= 1 << x
            if 2 * len(p.coeffs) == lengths[y] - lengths[x] + 1:
                mu[y] |= 1 << x
        return known, mu

    def __len__(self) -> int:
        return len(self._values)

    def stats(self) -> dict[str, int]:
        return {"n": self.n, "entries": len(self._values),
                "hits": self.hits, "misses": self.misses}

    def save(self, path: str) -> None:
        # sort_keys orders the table; one dumps call uses the C encoder,
        # which json.dump to a file never does.
        words = tuple(map(format_perm, self.table.perms)) if self._values else ()
        size = len(words)
        doc = {
            "n": self.n,
            "format_version": CACHE_FORMAT_VERSION,
            "table": {f"{words[key % size]}|{words[key // size]}": p.coeffs
                      for key, p in self._values.items()},
        }
        text = json.dumps(doc, sort_keys=True)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "KLCache":
        """
        Read a file written by :meth:`save`, rejecting a malformed one with
        ValueError.  Every key must be x|y in the one form :meth:`save`
        writes, compact words of S_n such as ``1324|3412``, which resolve
        through one dict built from the table; a key in any other form is
        refused with the entry and the path named.  Each key must be a pair
        x < y in Bruhat order, the only pairs the recursion stores.  The
        types of all coefficients are checked in one pass, and an entry is
        named by a second pass only when that fails.  Each value must pass
        the checks the recursion applies to its own: constant term 1,
        nonnegative coefficients and the degree bound.  Entries with equal
        coefficient lists share one polynomial.
        """
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        if doc.get("format_version") != CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported cache format in {path}")
        n, table = doc.get("n"), doc.get("table")
        if (type(n) is not int or not 1 <= n <= BRUHAT_TABLE_GUARD
                or not isinstance(table, dict)):
            raise ValueError(f"{path} needs an integer 'n' in "
                             f"[1, {BRUHAT_TABLE_GUARD}] and an object 'table'")
        values = table.values()
        if not (set(map(type, values)) <= {list} and set(
                map(type, itertools.chain.from_iterable(values))) <= {int}):
            bad = next(key for key, coeffs in table.items()
                       if type(coeffs) is not list
                       or any(type(c) is not int for c in coeffs))
            raise ValueError(f"cache entry {bad} in {path} is not a "
                             "list of integers")
        cache = cls(n)
        index, below = cache.table.index, cache.table.below
        lengths = cache.table.lengths
        size = len(index)
        positions = {format_perm(v): k for v, k in index.items()}
        for key, coeffs in table.items():
            xword, _, yword = key.partition("|")
            x, y = positions.get(xword), positions.get(yword)
            if x is None or y is None:
                raise ValueError(f"cache entry {key} in {path} is not x|y "
                                 f"with x and y words of S_{n}")
            if x == y or not below[y] >> x & 1:
                raise ValueError(f"cache entry {key} in {path} is not a "
                                 "pair x < y in Bruhat order")
            p = checked(tuple(coeffs))
            if p is None or 2 * len(p.coeffs) > lengths[y] - lengths[x] + 1:
                raise ValueError(
                    f"cache entry {key} in {path} is not a KL polynomial: it "
                    "needs constant term 1, nonnegative coefficients and "
                    "degree at most (l(y) - l(x) - 1) / 2")
            cache._values[y * size + x] = p
        return cache


def cache_path_for(base_path: str, n: int) -> str:
    """Per-n cache file derived from a base path: kl.json -> kl.s4.json."""
    stem, ext = os.path.splitext(base_path)
    return f"{stem}.s{n}{ext or '.json'}"


class KLCacheRegistry:
    """
    One :class:`KLCache` per group size, read from and written back to
    the per-n files under a base path (or kept in memory when there is
    none).  A file whose size differs from the one its name says is
    rejected, and a cache is written back only if it missed: each miss
    that returns stores one new pair, and one that raises never gets here.
    """

    def __init__(self, base_path: str | None):
        self.base_path = base_path
        self._caches: dict[int, KLCache] = {}

    def for_n(self, n: int) -> KLCache:
        if n not in self._caches:
            path = cache_path_for(self.base_path, n) if self.base_path else None
            if path and os.path.exists(path):
                cache = KLCache.load(path)
                if cache.n != n:
                    raise ValueError(
                        f"{path} holds a cache for S_{cache.n}, not S_{n}")
            else:
                cache = KLCache(n)
            self._caches[n] = cache
        return self._caches[n]

    def persist(self) -> None:
        if not self.base_path:
            return
        for n, cache in self._caches.items():
            if cache.misses:
                cache.save(cache_path_for(self.base_path, n))


def cache_for(cache: KLCache | None, *perms: Perm) -> KLCache:
    """``cache``, or a new one, once it and ``perms`` agree on n."""
    cache = KLCache(len(perms[0])) if cache is None else cache
    if any(len(v) != cache.n for v in perms):
        raise SizeMismatchError(f"permutations of sizes {[len(v) for v in perms]}"
                                f" and a KL cache for S_{cache.n}")
    return cache


def kl_polynomial(x: Perm, y: Perm, cache: KLCache | None = None) -> IntPolynomial:
    """
    The Kazhdan-Lusztig polynomial P_{x,y}(q).

    >>> str(kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2)))
    '1 + q'
    >>> str(kl_polynomial((4, 3, 2, 1), (1, 2, 3, 4)))
    '0'
    """
    x, y = as_perm(x), as_perm(y)
    cache = cache_for(cache, x, y)
    if x == y:
        return ONE
    if not bruhat_leq(x, y):
        return ZERO
    return kl_at(cache, cache.table.index[x], cache.table.index[y])


def kl_at(cache: KLCache, x: int, y: int) -> IntPolynomial:
    """P_{x,y} for the permutations at positions x and y of ``cache.table``."""
    if x == y:
        return ONE
    table = cache.table
    if not table.below[y] >> x & 1:
        return ZERO
    # Every read of the store is keyed y * n! + x and counted.
    known = cache._values.get(y * len(table.perms) + x)
    if known is not None:
        cache.hits += 1
        return known
    return _kl_miss(cache, x, y)


def _kl_miss(cache: KLCache, x: int, y: int) -> IntPolynomial:
    """
    P_{x,y} for a pair x < y the store lacks: counted as a miss, computed
    and stored.  Each term of the recursion is read straight from the
    store, a term it lacks is computed here first, and the miss adds its
    own hits to ``cache.hits`` once, at the end.
    """
    cache.misses += 1
    table = cache.table
    below, lengths = table.below, table.lengths
    size = len(table.perms)
    store = cache._values
    known, mus = cache.rows

    i = table.first_descent[y]
    times, descents = table.times_s[i], table.descents[i]
    ys, xs = times[y], times[x]
    row = ys * size
    ly = lengths[y]
    hits = 0
    # P_{x,y} = P_{lo,ys} + q P_{hi,ys} - (mu-sum), where {lo, hi} =
    # {x, xs} and hi has the descent s.  By the lifting property lo <= ys,
    # and hi differs from ys, which lacks the descent.  Positions are in
    # lexicographic order, so x has the descent iff xs comes first.
    lo, hi = (xs, x) if xs < x else (x, xs)
    if lo == ys:
        low = ONE
    else:
        low = store.get(row + lo)
        if low is None:
            low = _kl_miss(cache, lo, ys)
        else:
            hits += 1
    if not below[ys] >> hi & 1:
        # No q-term means no mu-sum either: a candidate z (below ys, with
        # the descent s, and x <= z) has hi <= z, as hi is x or, by the
        # lifting property, xs.  So P_{x,y} is P_{lo,ys}, whose
        # coefficients are checked below like any others, with no list
        # built.
        coeffs = low.coeffs
    else:
        high = store.get(row + hi)
        if high is None:
            high = _kl_miss(cache, hi, ys)
        else:
            hits += 1
        # Lists grow to fit each term, not to the degree bound, so a
        # corrupt cached term fails the checks below rather than indexing
        # past them.
        coeffs = list(low.coeffs)
        if len(coeffs) <= len(high.coeffs):
            coeffs += [0] * (len(high.coeffs) + 1 - len(coeffs))
        for d, a in enumerate(high.coeffs, 1):
            coeffs[d] += a
        # The mu-sum runs over x <= z < ys with zs < z and l(ys) - l(z)
        # odd, i.e. l(z) = l(y) mod 2: the set bits of one AND of
        # Bruhat-table bitsets, in symmetric_group order, not a scan of
        # S_n.  Every such z is below ys and differs from it, and x is at
        # or below z, so the store holds P_{z,ys} and P_{x,z} (for z != x)
        # once they are known.
        mask = below[ys] & table.above[x] & descents
        odd = mask & table.odd
        mask = odd if ly % 2 else mask ^ odd
        # Each candidate P_{z,ys} is one read.  The stored ones are hits
        # at once, and the others are computed first, in order: every pair
        # a miss reads has a second entry shorter than its own, so no
        # candidate's miss stores another candidate.  Only the z with
        # mu(z, ys) != 0 are then read.
        stored = mask & known[ys]
        hits += stored.bit_count()
        todo = mask ^ stored
        while todo:
            bit = todo & -todo
            todo ^= bit
            _kl_miss(cache, bit.bit_length() - 1, ys)
        mask &= mus[ys]
        while mask:
            bit = mask & -mask
            mask ^= bit
            z = bit.bit_length() - 1
            # mu(z, ys) is the q^((l(ys) - l(z) - 1) / 2) coefficient of
            # P_{z,ys}; its term is shifted by one more.
            shift = (ly - lengths[z]) // 2
            mu = store[row + z].coeffs[shift - 1]
            if z == x:
                pxz = ONE
            else:
                pxz = store.get(z * size + x)
                if pxz is None:
                    pxz = _kl_miss(cache, x, z)
                else:
                    hits += 1
            term = pxz.coeffs
            if len(coeffs) < shift + len(term):
                coeffs += [0] * (shift + len(term) - len(coeffs))
            for d, a in enumerate(term, shift):
                coeffs[d] -= mu * a
    cache.hits += hits

    # The degree bound 2 deg <= l(y) - l(x) - 1 depends on the pair.
    p = checked(tuple(coeffs))
    if p is None or (slack := ly - lengths[x] + 1 - 2 * len(p.coeffs)) < 0:
        px, py = format_perm(table.perms[x]), format_perm(table.perms[y])
        constant = coeffs[0] if coeffs else 0
        if constant != 1:
            raise ArithmeticError(f"P_{px},{py} has constant term {constant}")
        if min(coeffs) < 0:
            raise ArithmeticError(f"negative coefficient in P_{px},{py}")
        raise ArithmeticError(f"degree bound violated for P_{px},{py}")
    store[y * size + x] = p
    known[y] |= 1 << x
    # slack 0 is mu(x, y) != 0, by the one test KLCache.rows states.
    if not slack:
        mus[y] |= 1 << x
    return p


def imm_terms(v: Perm, cache: KLCache) -> list[tuple[int, int]]:
    """
    Imm_v as signed terms: one (k, c) per w = ``cache.table.perms[k]`` >= v,
    with c = (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1).  Left multiplication
    by w0 reverses the table, so this is one pass over the x = w0 w below
    y = w0 v.  Stored values count as hits all at once, x = y is 1, and
    each pair the store lacks goes to :func:`_kl_miss`: entries, hits and
    misses are as with one :func:`kl_at` call per w.  ``v`` is validated,
    and a cache for another S_n raises SizeMismatchError.
    """
    v = as_perm(v)
    cache = cache_for(cache, v)
    table = cache.table
    top, lengths = len(table.perms) - 1, table.lengths
    y = top - table.index[v]
    ly, row, store = lengths[y], y * (top + 1), cache._values
    stored, terms = 0, []
    for x in iter_bits(table.below[y]):
        p = store.get(row + x)
        if p is None:
            p = ONE if x == y else _kl_miss(cache, x, y)
        else:
            stored += 1
        c = sum(p.coeffs)
        terms.append((top - x, -c if (ly - lengths[x]) % 2 else c))
    cache.hits += stored
    return terms
