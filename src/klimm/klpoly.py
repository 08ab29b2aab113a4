"""
Kazhdan-Lusztig polynomials P_{x,y}(q) for the symmetric group.

They are computed by the classical recursion on a right descent of y,
one whole row at a time, and kept in a :class:`KLCache` as rows of value
classes: for each y, each distinct P with the bitset of the x <= y with
P_{x,y} = P, over positions in the cache's
:func:`klimm.perm.bruhat_table`.  A row takes few distinct values (S_6
has 43,693 KL values but 14 distinct ones), which is how du Cloux's
*Coxeter* keeps it.  The table, and so every value with x < y, is
guarded at n <= 7.  Values are interned: equal coefficient tuples share
one :class:`IntPolynomial`.

The row fill :func:`_fill_row` is the one engine that computes values.
The recursion, asked for a whole row, reads only whole rows, so the fill
makes those whole first and then computes its row class by class, by
ANDs of table bitsets, never pair by pair.  Only the fill and
:meth:`KLCache.load` write the store, each a whole row, and no other
module reads it.  Counts are those of the pair-by-pair recursion walking
the row in ascending x: a miss is a pair computed and stored, and a hit
a recursion term answered from the store (a descent term, a mu-sum
candidate P_{z,ys} or a mu-term P_{x,z}).  :func:`kl_at` counts one hit
for a pair of a stored row, and :func:`imm_terms` one per pair of it.

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


def _from_top(bits: int, top: int) -> itertools.compress:
    """top - x for the set bits x of ``bits``, in ascending x, with no
    loop over the bits: the reversed binary digits flag them."""
    flags = format(bits, "b")[::-1].encode().translate(_BIT_FLAGS)
    return itertools.compress(range(top, top - len(flags), -1), flags)


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

    ``_rows[y]`` maps each polynomial P to the bitset of the positions
    x <= y in ``table``, the Bruhat table of S_n (built on first use),
    with P_{x,y} = P; y itself sits in the class of 1.  A row is stored
    whole or not at all, by :func:`_fill_row` or :meth:`load`; words
    appear only in files.  ``hits`` and ``misses`` count as the module
    docstring says.  The store is a plain dict, so use one writer at a
    time.

    A file holds the rows as they are kept, each P an index into one
    table of distinct polynomials, as du Cloux's *Coxeter* holds each
    P_{x,y} as a reference into one such table: ``{"n",
    "format_version": 2, "values": [[1], [1, 1], ...], "rows":
    {"<y word>": {"<i>": "<hex>"}}}``, where bit x of the hex bitset of
    class i in the row of y is set iff x < y and P_{x,y} = ``values[i]``.
    So save and load work per row and class, never per pair.
    Persistence uses write-to-temp-then-rename so a crash cannot leave a
    torn file.
    """

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, dict[IntPolynomial, int]] = {}
        self.hits = 0
        self.misses = 0

    @cached_property
    def table(self) -> BruhatTable:
        return bruhat_table(self.n)

    def __len__(self) -> int:
        """The stored pairs x < y: every x of each row but y itself."""
        return sum(bits.bit_count() for row in self._rows.values()
                   for bits in row.values()) - len(self._rows)

    def stats(self) -> dict[str, int]:
        return {"n": self.n, "entries": len(self),
                "hits": self.hits, "misses": self.misses}

    def save(self, path: str) -> None:
        """
        Write the store in the format of the class docstring: the distinct
        coefficient lists, sorted, and for each stored row one bitset per
        value it takes at some x < y.  Keys are sorted too, so the bytes
        follow from the store alone, not from its order or hash order.
        """
        # An empty store needs no table, so S_8 and up save one too.
        perms = self.table.perms if self._rows else ()
        rows = {}
        for y, row in self._rows.items():
            classes = {p.coeffs: bits for p, bits in row.items()}
            # P_{y,y} = 1 is no pair, so a file leaves y out.
            classes[ONE.coeffs] = classes.get(ONE.coeffs, 0) & ~(1 << y)
            rows[format_perm(perms[y])] = {coeffs: bits for coeffs, bits
                                           in classes.items() if bits}
        values = sorted({coeffs for row in rows.values() for coeffs in row})
        index = {coeffs: str(i) for i, coeffs in enumerate(values)}
        # sort_keys orders rows and classes; one dumps call uses the C
        # encoder, which json.dump to a file never does.
        text = json.dumps({
            "n": self.n,
            "format_version": CACHE_FORMAT_VERSION,
            "values": values,
            "rows": {word: {index[coeffs]: format(bits, "x")
                            for coeffs, bits in row.items()}
                     for word, row in rows.items()},
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
        ValueError naming the file; a file of another format version, or
        with a row that is not whole, is refused with a hint to delete it,
        so that the next run rebuilds it.  Each row must be keyed by a
        compact word of S_n such as ``3412``, the one form :meth:`save`
        writes, resolved through one dict built from the table, and map
        indices into ``values`` to nonzero lowercase hex bitsets over the
        table's positions.  Then every check is one per row and class, and
        a refusal names the entry x|y at its lowest offending bit: each
        pair must be x < y in Bruhat order, the only pairs the recursion
        stores, and no pair may sit in two classes.  Each value must be a
        list of ints passing the checks the recursion applies to its own:
        constant term 1 and nonnegative coefficients, once per distinct
        list, and the degree bound, one AND with the positions x of length
        at least l(y) + 2 - 2 * len.  Last, the classes of a row must
        cover every x < y, as only whole rows are stored.
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

        limit = 1 << size
        for word, row in rows.items():
            y = positions.get(word)
            if y is None or type(row) is not dict:
                raise ValueError(f"cache row {word} in {path} is not a "
                                 f"compact word of S_{n} mapping class "
                                 "indices to bitsets")
            strictly_below, ly = below[y] ^ 1 << y, lengths[y]
            classes, seen = {ONE: 1 << y}, 0
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
                classes[p] = classes.get(p, 0) | bits
            if seen != strictly_below:
                raise ValueError(f"cache row {word} in {path} is not a whole "
                                 "row: delete the file and the next run "
                                 "rebuilds it")
            cache._rows[y] = classes
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
    written back only if it missed: each row fill that returns stores a
    whole new row, and one that raises never gets here.
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
    """
    P_{x,y} for the permutations at positions x and y of ``cache.table``:
    a class lookup in the row of y, which counts one hit if the row is
    stored and is filled whole first if not.
    """
    if x == y:
        return ONE
    if not cache.table.below[y] >> x & 1:
        return ZERO
    classes, made = _row(cache, y)
    if not made:
        cache.hits += 1
    return next(p for p, bits in classes.items() if bits >> x & 1)


def _row(cache: KLCache, y: int) -> tuple[dict[IntPolynomial, int], int]:
    """
    The classes of row y, and how many pairs were stored to make them:
    a row the store lacks is filled whole first.  The row of e, which
    holds no pair, is {1: e} and is never stored.
    """
    classes = cache._rows.get(y)
    if classes is not None:
        return classes, 0
    if not y:
        return {ONE: 1}, 0
    return _fill_row(cache, y), cache.table.below[y].bit_count() - 1


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


def _fill_row(cache: KLCache, y: int) -> dict[IntPolynomial, int]:
    """
    Compute and store the whole row of y != e, which the store lacks, and
    return its classes.  Misses count its pairs, and hits the reads the
    pair-by-pair recursion would make for them in ascending x, less the
    first read of each pair it stored in the rows it read.  That
    recursion, asked for a whole row, reads only whole rows: the row of
    ys (s the first descent of y), and the row of each mu-sum candidate z
    with mu(z, ys) != 0, as every x <= z has its q-term.  So those rows
    are made whole first, and the row of y is computed class by class,
    one AND of bitsets per pair of classes, never pair by pair.

    With S(b) the positions of b times s, a class C of the row of ys
    gives P_{lo,ys} on (C & A) | S(C & A), A the positions without the
    descent s, and P_{hi,ys} on (C & D) | S(C & D), D those with it;
    these make the parts of the row, keyed by coefficients.  Each mu-row
    z then splits the parts on below[z] by its classes, taking away
    mu(z, ys) q^((l(y) - l(z)) / 2) P_{x,z}.  Each distinct part is
    checked once, the degree bound by one AND, and a failure raises the
    error of :func:`_not_kl` for the lowest offending x.
    """
    table = cache.table
    below, lengths = table.below, table.lengths
    i = table.first_descent[y]
    moves, descents = table.moves[i], table.descents[i]
    ys, ly = table.times_s[i][y], lengths[y]
    classes, created = _row(cache, ys)
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
    # mu(z, ys) != 0 iff P_{z,ys} meets the degree bound with equality,
    # l(z) = l(y) - 2 len, and then mu is its top coefficient.
    at_least, mus = _at_least(cache.n), {}
    for p, bits in classes.items():
        if p.coeffs and (lz := ly - 2 * len(p.coeffs)) >= 0:
            for z in iter_bits(bits & candidates
                               & at_least[lz] & ~at_least[lz + 1]):
                mus[z] = p.coeffs[-1]
    for z in sorted(mus):
        shift = (ly - lengths[z]) // 2
        classes, made = _row(cache, z)
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
                        key = _plus(a, p.coeffs, -mus[z], shift)
                        split[key] = split.get(key, 0) | both
        parts = split

    pairs, classes, worst = below[y] ^ 1 << y, {}, None
    for coeffs, bits in parts.items():
        p, bad = checked(coeffs), bits & pairs
        if p is not None:
            bad &= at_least[max(ly + 2 - 2 * len(p.coeffs), 0)]
        if bad and (worst is None or bad & -bad < worst[0]):
            worst = bad & -bad, coeffs
        classes[p] = bits
    if worst:
        raise _not_kl(table, worst[0].bit_length() - 1, y, worst[1])
    cache._rows[y] = classes
    cache.misses += pairs.bit_count()
    cache.hits += reads - created
    return classes


def imm_terms(v: Perm, cache: KLCache | None) -> list[tuple[int, int]]:
    """
    Imm_v as signed terms: one (k, c) per w = ``cache.table.perms[k]`` >= v,
    with c = (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1).  Left multiplication
    by w0 reverses the table, so these are the x = w0 w below y = w0 v,
    built per value class of the row of y: P(1) is one sum per class, and
    the sign the parity of l(y) - l(x), one AND with ``table.odd``.  A
    stored row counts one hit per pair x < y, as one :func:`kl_at` call
    per w would, and a row the store lacks is filled whole by
    :func:`_fill_row`, which does its own counting.  ``v`` is validated,
    and a cache for another S_n raises SizeMismatchError.
    """
    v = as_perm(v)
    cache = cache_for(cache, v)
    table = cache.table
    top = len(table.perms) - 1
    y = top - table.index[v]
    classes, made = _row(cache, y)
    if not made:
        cache.hits += table.below[y].bit_count() - 1
    # l(y) - l(x) is even iff x has the parity of y.
    even = table.odd if table.lengths[y] % 2 else ~table.odd
    terms = []
    for p, bits in classes.items():
        c, plus = sum(p.coeffs), bits & even
        terms += zip(_from_top(plus, top), itertools.repeat(c))
        terms += zip(_from_top(bits ^ plus, top), itertools.repeat(-c))
    return terms
