"""
Test oracle for ``klimm.klpoly``: the KL recursion pair by pair, as it
was before the row fill.  It reads every mu-sum candidate P_{z,ys} one
by one, to learn mu(z, ys), and counts each read as a hit or a miss.
Its store is its own, an :class:`Oracle`: one dict of pairs, keyed
y * n! + x, with the counts ``KLCache`` keeps.  :func:`kl_at_by_rows` is
the per-pair counterpart of ``kl_at``, and :func:`pairs_of` reads a
``KLCache``'s rows as the oracle keeps its store.  :func:`per_w_terms`
is the per-pair counterpart of ``imm_terms``.
"""
from conftest import above
from klimm.klpoly import ONE, ZERO, IntPolynomial, KLCache, _not_kl, checked
from klimm.perm import bruhat_table, iter_bits


class Oracle:
    """A per-pair store for S_n, with the counts of a ``KLCache``."""

    def __init__(self, n: int, values: dict[int, IntPolynomial] | None = None):
        self.n = n
        self.table = bruhat_table(n)
        self.values = dict(values or {})
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"n": self.n, "entries": len(self.values),
                "hits": self.hits, "misses": self.misses}


def pairs_of(cache: KLCache) -> dict[int, IntPolynomial]:
    """The rows of ``cache`` as one value per pair x < y, keyed y * n! + x."""
    size = len(cache.table.perms)
    return {y * size + x: p for y, row in cache._rows.items()
            for p, bits in row.items() for x in iter_bits(bits) if x != y}


def kl_at_by_rows(oracle: Oracle, x: int, y: int) -> IntPolynomial:
    """
    P_{x,y} as ``kl_at`` counts it: a pair x < y the store lacks first
    walks the whole row of y, in ascending x, and is then read uncounted.
    """
    table, size = oracle.table, len(oracle.table.perms)
    if x == y or not table.below[y] >> x & 1 or y * size + x in oracle.values:
        return kl_at_every_candidate(oracle, x, y)
    for u in iter_bits(table.below[y] ^ 1 << y):
        kl_at_every_candidate(oracle, u, y)
    return oracle.values[y * size + x]


def kl_at_every_candidate(oracle: Oracle, x: int, y: int) -> IntPolynomial:
    """P_{x,y} at positions of ``oracle.table``, reading every candidate."""
    if x == y:
        return ONE
    table = oracle.table
    below = table.below
    if not below[y] >> x & 1:
        return ZERO
    size = len(table.perms)
    store = oracle.values
    stored = store.get(y * size + x)
    if stored is not None:
        oracle.hits += 1
        return stored
    oracle.misses += 1

    i = table.first_descent[y]
    ys, xs = table.times_s[i][y], table.times_s[i][x]
    row = ys * size
    lo, hi = (xs, x) if table.descents[i] >> x & 1 else (x, xs)
    if lo == ys:
        low = ONE
    else:
        low = store.get(row + lo)
        if low is None:
            low = kl_at_every_candidate(oracle, lo, ys)
        else:
            oracle.hits += 1
    if not below[ys] >> hi & 1:
        high = ZERO
    else:
        high = store.get(row + hi)
        if high is None:
            high = kl_at_every_candidate(oracle, hi, ys)
        else:
            oracle.hits += 1
    coeffs = list(low.coeffs)
    if len(coeffs) <= len(high.coeffs):
        coeffs += [0] * (len(high.coeffs) + 1 - len(coeffs))
    for d, a in enumerate(high.coeffs, 1):
        coeffs[d] += a

    lengths = table.lengths
    ly = lengths[y]
    parity = table.odd if ly % 2 else ~table.odd
    mask = below[ys] & above(table, x) & table.descents[i] & parity
    while mask:
        bit = mask & -mask
        mask ^= bit
        z = bit.bit_length() - 1
        pz = store.get(row + z)
        if pz is None:
            pz = kl_at_every_candidate(oracle, z, ys)
        else:
            oracle.hits += 1
        # mu(z, ys) is the q^(shift - 1) coefficient, nonzero iff P_{z,ys}
        # meets the degree bound with equality, as the engine reads it; a
        # planted value past the bound has no mu here either.
        shift = (ly - lengths[z]) // 2
        mu = pz.coeffs[-1] if len(pz.coeffs) == shift else 0
        if mu:
            if z == x:
                pxz = ONE
            else:
                pxz = store.get(z * size + x)
                if pxz is None:
                    pxz = kl_at_every_candidate(oracle, x, z)
                else:
                    oracle.hits += 1
            term = pxz.coeffs
            if len(coeffs) < shift + len(term):
                coeffs += [0] * (shift + len(term) - len(coeffs))
            for d, a in enumerate(term, shift):
                coeffs[d] -= mu * a

    p = checked(tuple(coeffs))
    if p is None or 2 * len(p.coeffs) > ly - lengths[x] + 1:
        raise _not_kl(table, x, y, coeffs)
    store[y * size + x] = p
    return p


def per_w_terms(v, oracle):
    """
    The signed terms as one per-pair oracle call per w = perms[k] >= v,
    in the order of the upper interval of v: the terms, KL counts and
    store that imm_terms's one read of the row of w0 v must match.
    """
    table = oracle.table
    iv, top = table.index[v], len(table.perms) - 1
    return [(k, (-1) ** (table.lengths[k] - table.lengths[iv])
             * kl_at_every_candidate(oracle, top - k, top - iv)(1))
            for k in iter_bits(above(table, iv))]
