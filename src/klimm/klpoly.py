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
computed and stored.  Three writers fill the store, and no other module
reads it: :func:`_kl_miss`, one pair at a time; the row fill
:func:`_fill_row`, one whole row of :func:`imm_terms` that holds no pair
yet, by value-class bitsets (a row takes few distinct values, as du
Cloux's *Coxeter* uses); and :meth:`KLCache.load`.  The row fill stores
and counts what :func:`_kl_miss` would, because the recursion asked for
a whole row reads only whole rows.  A miss whose only term is P_{lo,ys}
reuses that value's coefficients, checked like any others.

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
    times_s_bits,
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


CACHE_FORMAT_VERSION = 2

# Turns the binary digits of a bitset, lowest first, into 0/1 flags.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _keys(bits: int, base: int) -> itertools.compress:
    """base + x for the set bits x of ``bits``, ascending, with no loop
    over the bits: the reversed binary digits flag them."""
    flags = format(bits, "b")[::-1].encode().translate(_BIT_FLAGS)
    return itertools.compress(range(base, base + len(flags)), flags)


@lru_cache(maxsize=None)
def _at_least(n: int) -> tuple[int, ...]:
    """Bitset t holds the positions of S_n of length at least t."""
    lengths = bruhat_table(n).lengths
    at_least = [0] * (max(lengths) + 1)
    for x, lx in enumerate(lengths):
        at_least[lx] |= 1 << x
    for t in reversed(range(len(at_least) - 1)):
        at_least[t] |= at_least[t + 1]
    return tuple(at_least)


class KLCache:
    """Memo table for P_{x,y} over a single symmetric group S_n.

    Immutable values are stored by position in ``table``, the Bruhat
    table of S_n (built on first use); words appear only in the files of
    :meth:`save` and :meth:`load`.  Only :func:`_kl_miss`,
    :func:`_fill_row` and :meth:`load` write the store, ``rows`` mirrors
    it from the first miss on, and ``_classes`` holds the value classes
    of the full rows :func:`_fill_row` made or read.  ``hits`` counts
    the recursion terms answered from the store, each stored mu-sum
    candidate among them, and the stored pairs :func:`imm_terms` reads;
    ``misses`` counts the pairs computed.
    The store is a plain dict, so use one writer at a time.

    A file holds the store by value class, as du Cloux's *Coxeter* holds
    each P_{x,y} as a reference into one table of distinct polynomials:
    ``{"n", "format_version": 2, "values": [[1], [1, 1], ...], "rows":
    {"<y word>": {"<i>": "<hex>"}}}``, where bit x of the hex bitset of
    class i in the row of y is set iff P_{x,y} = ``values[i]``.  The S_6
    cache of prop-3.1 holds 43,693 pairs but 14 distinct values, so a
    load checks per row and class, and only the store fill is per pair.
    Persistence uses write-to-temp-then-rename so a crash cannot leave a
    torn file.
    """

    def __init__(self, n: int):
        self.n = n
        self._values: dict[int, IntPolynomial] = {}
        self._classes: dict[int, dict[IntPolynomial, int]] = {}
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
        not 0: as every writer enforces the degree bound, iff the stored
        P_{x,y} has degree (l(y) - l(x) - 1) / 2, the test of
        :func:`_kl_miss`.  Built from the store at the first miss, after
        which :func:`_kl_miss` and :func:`_fill_row` keep them up to date;
        a cache that only ever hits never builds them.
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
        """
        Write the store in the format of the class docstring: the distinct
        coefficient lists, sorted, and for each y that has stored pairs
        one bitset per value it takes.  Keys are sorted too, so the bytes
        follow from the store alone, not from its order or hash order.
        """
        # An empty store needs no table, so S_8 and up save one too.
        perms = self.table.perms if self._values else ()
        size = len(perms)
        classes: dict[int, dict[tuple[int, ...], int]] = {}
        for key, p in self._values.items():
            y, x = divmod(key, size)
            row = classes.setdefault(y, {})
            row[p.coeffs] = row.get(p.coeffs, 0) | 1 << x
        values = sorted({p.coeffs for p in self._values.values()})
        index = {coeffs: str(i) for i, coeffs in enumerate(values)}
        # sort_keys orders rows and classes; one dumps call uses the C
        # encoder, which json.dump to a file never does.
        text = json.dumps({
            "n": self.n,
            "format_version": CACHE_FORMAT_VERSION,
            "values": values,
            "rows": {format_perm(perms[y]): {index[coeffs]: format(bits, "x")
                                             for coeffs, bits in row.items()}
                     for y, row in classes.items()},
        }, sort_keys=True)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # mkstemp makes its file 0600; the file gets the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "KLCache":
        """
        Read a file written by :meth:`save`, rejecting a malformed one with
        ValueError naming the file; a file of another format version is
        refused with a hint to delete it, so that the next run rebuilds it.
        Each row must be keyed by a compact word of S_n such as ``3412``,
        the one form :meth:`save` writes, resolved through one dict built
        from the table, and map indices into ``values`` to nonzero
        lowercase hex bitsets over the table's positions.  Then every
        check is one per row and class, and a refusal names the entry x|y
        at its lowest offending bit: each pair must be x < y in Bruhat
        order, the only pairs the recursion stores, and no pair may sit
        in two classes.  Each value must be a list of ints passing the
        checks the recursion applies to its own: constant term 1 and
        nonnegative coefficients, once per distinct list, and the degree
        bound, one AND with the positions x of length at least
        l(y) + 2 - 2 * len.  Pairs of a class share one polynomial.
        """
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        if doc.get("format_version") != CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported cache format in {path}: delete "
                             "the file and the next run rebuilds it")
        n, values, rows = doc.get("n"), doc.get("values"), doc.get("rows")
        if (type(n) is not int or not 1 <= n <= BRUHAT_TABLE_GUARD
                or type(values) is not list or type(rows) is not dict):
            raise ValueError(f"{path} needs an integer 'n' in "
                             f"[1, {BRUHAT_TABLE_GUARD}], a list 'values' "
                             "and an object 'rows'")
        cache = cls(n)
        table = cache.table
        below, lengths = table.below, table.lengths
        size = len(table.perms)
        words = [format_perm(v) for v in table.perms]
        positions = {word: k for k, word in enumerate(words)}
        at_least = _at_least(n)
        # Class index -> its polynomial, None if it is no KL polynomial,
        # or False if it is not a list of ints.
        polys = {str(i): checked(tuple(coeffs))
                 if type(coeffs) is list and set(map(type, coeffs)) <= {int}
                 else False for i, coeffs in enumerate(values)}

        def refuse(bad: int, y: int, why: str) -> ValueError:
            x = (bad & -bad).bit_length() - 1
            return ValueError(f"cache entry {words[x]}|{words[y]} in {path} "
                              f"{why}")

        store, limit = cache._values, 1 << size
        for word, row in rows.items():
            y = positions.get(word)
            if y is None or type(row) is not dict:
                raise ValueError(f"cache row {word} in {path} is not a "
                                 f"compact word of S_{n} mapping class "
                                 "indices to bitsets")
            strictly_below, ly = below[y] ^ 1 << y, lengths[y]
            base, seen = y * size, 0
            for i, text in row.items():
                try:
                    bits = int(text, 16)
                except (TypeError, ValueError):
                    bits = 0
                if (i not in polys or not 0 < bits < limit
                        or format(bits, "x") != text):
                    raise ValueError(
                        f"cache row {word} in {path} maps {i!r} to {text!r}, "
                        "not an index into 'values' to a nonzero lowercase "
                        f"hex bitset over the {size} positions of S_{n}")
                if bad := bits & ~strictly_below:
                    raise refuse(bad, y, "is not a pair x < y in Bruhat order")
                if bad := bits & seen:
                    raise refuse(bad, y, "sits in two classes")
                p = polys[i]
                if p is False:
                    raise refuse(bits, y, "is not a list of integers")
                if bad := bits if p is None else bits & at_least[
                        max(ly + 2 - 2 * len(p.coeffs), 0)]:
                    raise refuse(
                        bad, y, "is not a KL polynomial: it needs constant "
                        "term 1, nonnegative coefficients and degree at "
                        "most (l(y) - l(x) - 1) / 2")
                seen |= bits
                # The store fill is the one step per pair.
                store.update(dict.fromkeys(_keys(bits, base), p))
        return cache


def cache_path_for(base_path: str, n: int) -> str:
    """Per-n cache file derived from a base path: kl.json -> kl.s4.json."""
    stem, ext = os.path.splitext(base_path)
    return f"{stem}.s{n}{ext or '.json'}"


class KLCacheRegistry:
    """
    One :class:`KLCache` per group size, read from and written back to
    the per-n files under a base path (or kept in memory when there is
    none); a base path that names a directory is refused.  A file whose
    size differs from the one its name says is rejected, and a cache is
    written back only if it missed: each miss that returns stores one new
    pair, and one that raises never gets here.
    """

    def __init__(self, base_path: str | None):
        if base_path and (os.path.isdir(base_path)
                          or not os.path.basename(base_path)):
            raise ValueError(f"KL cache base path {base_path!r} names a "
                             "directory, not a file")
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
        raise _not_kl(table, x, y, coeffs)
    store[y * size + x] = p
    known[y] |= 1 << x
    # slack 0 is mu(x, y) != 0, by the one test KLCache.rows states.
    if not slack:
        mus[y] |= 1 << x
    return p


def _not_kl(table: BruhatTable, x: int, y: int, coeffs) -> ArithmeticError:
    """The error for a computed P_{x,y} with these coefficients that
    fails a check: its constant term, a sign, or else the degree bound."""
    px, py = format_perm(table.perms[x]), format_perm(table.perms[y])
    constant = coeffs[0] if coeffs else 0
    if constant != 1:
        return ArithmeticError(f"P_{px},{py} has constant term {constant}")
    if min(coeffs) < 0:
        return ArithmeticError(f"negative coefficient in P_{px},{py}")
    return ArithmeticError(f"degree bound violated for P_{px},{py}")


def _plus(a: tuple[int, ...], b: tuple[int, ...], factor: int,
          shift: int) -> tuple[int, ...]:
    """The coefficients of a + factor q^shift b, trailing zeros dropped."""
    coeffs = list(a) + [0] * (shift + len(b) - len(a))
    for d, c in enumerate(b, shift):
        coeffs[d] += factor * c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _row_classes(cache: KLCache, z: int) -> tuple[dict[IntPolynomial, int], int]:
    """
    The classes of row z, once it is full, and how many of its pairs were
    stored to make it so.  A class maps P to the bitset of the x <= z
    with P_{x,z} = P, z itself in the class of 1.  An empty row is filled
    by :func:`_fill_row`, a partly stored one pair by pair through
    :func:`_kl_miss`, in ascending x, and a full one is read once and
    kept in ``cache._classes``, where :func:`_fill_row` puts its own rows.
    """
    classes = cache._classes.get(z)
    if classes is not None:
        return classes, 0
    table, known = cache.table, cache.rows[0]
    missing = table.below[z] ^ 1 << z ^ known[z]
    if z and not known[z]:
        return _fill_row(cache, z), missing.bit_count()
    for x in iter_bits(missing):
        _kl_miss(cache, x, z)
    row, store = z * len(table.perms), cache._values
    classes = {ONE: 1 << z}
    for x in iter_bits(table.below[z] ^ 1 << z):
        p = store[row + x]
        classes[p] = classes.get(p, 0) | 1 << x
    cache._classes[z] = classes
    return classes, missing.bit_count()


def _fill_row(cache: KLCache, y: int) -> dict[IntPolynomial, int]:
    """
    Store the whole row of y != e, which holds no pair yet, and return
    its classes; entries, hits, misses and ``cache.rows`` end as if
    :func:`_kl_miss` had filled it in ascending x.  That holds because
    the recursion, asked for a whole row, reads only whole rows: the row
    of ys (s the first descent of y), and the row of each mu-sum
    candidate z with mu(z, ys) != 0, as every x <= z has its q-term.  So
    those rows are made full first, and the row of y is computed class
    by class, one AND of bitsets per pair of classes, never pair by pair.

    With S(b) the positions of b times s, a class C of the row of ys
    gives P_{lo,ys} on (C & A) | S(C & A), A the positions without the
    descent s, and P_{hi,ys} on (C & D) | S(C & D), D those with it;
    these make the parts of the row, keyed by coefficients.  Each mu-row
    z then splits the parts on below[z] by its classes, taking away
    mu(z, ys) q^((l(y) - l(z)) / 2) P_{x,z}.  Each distinct part is
    checked once, the degree bound by one AND, and a failure raises the
    error of :func:`_kl_miss` for the lowest offending x.
    """
    table = cache.table
    below, lengths = table.below, table.lengths
    store, size = cache._values, len(table.perms)
    known, mus = cache.rows
    i = table.first_descent[y]
    moves, descents = table.moves[i], table.descents[i]
    ys, ly = table.times_s[i][y], lengths[y]
    classes, created = _row_classes(cache, ys)
    lows, highs, q_terms = [], [], 0
    for p, bits in classes.items():
        low, high = bits & ~descents, bits & descents
        lows.append((p.coeffs, low | times_s_bits(low, moves)))
        if high:
            high |= times_s_bits(high, moves)
            highs.append((p.coeffs, high))
            q_terms |= high
    parts: dict[tuple[int, ...], int] = {}
    for a, low in lows:
        if rest := low & ~q_terms:
            parts[a] = parts.get(a, 0) | rest
        for b, high in highs:
            if both := low & high:
                key = _plus(a, b, 1, 1)
                parts[key] = parts.get(key, 0) | both
    # The reads the recursion makes for the pairs of this row: each
    # P_{lo,ys} but for x = ys, each q-term, each candidate P_{z,ys} for
    # every x <= z, and each mu-term.  All are hits but the first read of
    # each pair the dependency rows lacked (``created``), a miss there.
    candidates = below[ys] & descents
    odd = candidates & table.odd
    candidates = odd if ly % 2 else candidates ^ odd
    reads = below[y].bit_count() - 2 + q_terms.bit_count()
    for z in iter_bits(candidates):
        reads += below[z].bit_count()
    for z in iter_bits(candidates & mus[ys]):
        shift = (ly - lengths[z]) // 2
        mu = store[ys * size + z].coeffs[shift - 1]
        classes, made = _row_classes(cache, z)
        created += made
        inside = below[z]
        reads += inside.bit_count() - 1
        split: dict[tuple[int, ...], int] = {}
        for a, bits in parts.items():
            if rest := bits & ~inside:
                split[a] = split.get(a, 0) | rest
            if bits & inside:
                for p, b in classes.items():
                    if both := bits & b:
                        key = _plus(a, p.coeffs, -mu, shift)
                        split[key] = split.get(key, 0) | both
        parts = split

    pairs, at_least = below[y] ^ 1 << y, _at_least(cache.n)
    polys, worst = [], None
    for coeffs, bits in parts.items():
        p, bad = checked(coeffs), bits & pairs
        if p is not None:
            bad &= at_least[max(ly + 2 - 2 * len(p.coeffs), 0)]
        if bad and (worst is None or bad & -bad < worst[0]):
            worst = bad & -bad, coeffs
        polys.append((p, bits))
    if worst:
        raise _not_kl(table, worst[0].bit_length() - 1, y, worst[1])
    classes, base, mu_bits = {}, y * size, 0
    for p, bits in polys:
        classes[p] = bits
        bits &= pairs
        store.update(dict.fromkeys(_keys(bits, base), p))
        # mu(x, y) != 0 where the bound is met with equality.
        if (top := ly + 1 - 2 * len(p.coeffs)) >= 0:
            mu_bits |= bits & at_least[top]
    known[y], mus[y] = pairs, mu_bits
    cache._classes[y] = classes
    cache.misses += pairs.bit_count()
    cache.hits += reads - created
    return classes


def imm_terms(v: Perm, cache: KLCache | None) -> list[tuple[int, int]]:
    """
    Imm_v as signed terms: one (k, c) per w = ``cache.table.perms[k]`` >= v,
    with c = (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1).  Left multiplication
    by w0 reverses the table, so this is one pass over the x = w0 w below
    y = w0 v.  Stored values count as hits all at once, x = y is 1, a
    row that holds no pair is filled whole by :func:`_fill_row`, and each
    pair a partly stored row lacks goes to :func:`_kl_miss`: entries, hits
    and misses are as with one :func:`kl_at` call per w.  ``v`` is validated,
    and a cache for another S_n raises SizeMismatchError.
    """
    v = as_perm(v)
    cache = cache_for(cache, v)
    table = cache.table
    top, lengths = len(table.perms) - 1, table.lengths
    y = top - table.index[v]
    ly, row, store = lengths[y], y * (top + 1), cache._values
    # A row without P_{e,y} has a miss ahead, so the rows may be built.
    filled = y and row not in store and not cache.rows[0][y]
    if filled:
        _fill_row(cache, y)
    stored, terms = 0, []
    for x in iter_bits(table.below[y]):
        p = store.get(row + x)
        if p is None:
            p = ONE if x == y else _kl_miss(cache, x, y)
        else:
            stored += 1
        c = sum(p.coeffs)
        terms.append((top - x, -c if (ly - lengths[x]) % 2 else c))
    if not filled:
        cache.hits += stored
    return terms
