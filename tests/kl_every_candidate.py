"""
Test oracle for ``klimm.klpoly.kl_at``: the KL recursion as it was before
the mu-sum read the cache's row bitsets.  It reads every mu-sum candidate
P_{z,ys} from the store one by one, to learn mu(z, ys), and counts each
read as a hit or a miss exactly as ``kl_at`` must.  It writes values to
the store of the ``KLCache`` it is given but never builds or updates that
cache's ``rows``, so run it on a cache of its own.
"""
from klimm.klpoly import ONE, ZERO, IntPolynomial, KLCache, checked


def kl_at_every_candidate(cache: KLCache, x: int, y: int) -> IntPolynomial:
    """P_{x,y} at positions of ``cache.table``, reading every candidate."""
    if x == y:
        return ONE
    table = cache.table
    below = table.below
    if not below[y] >> x & 1:
        return ZERO
    size = len(table.perms)
    store = cache._values
    stored = store.get(y * size + x)
    if stored is not None:
        cache.hits += 1
        return stored
    cache.misses += 1

    i = table.first_descent[y]
    ys, xs = table.times_s[i][y], table.times_s[i][x]
    row = ys * size
    lo, hi = (xs, x) if table.descents[i] >> x & 1 else (x, xs)
    if lo == ys:
        low = ONE
    else:
        low = store.get(row + lo)
        if low is None:
            low = kl_at_every_candidate(cache, lo, ys)
        else:
            cache.hits += 1
    if not below[ys] >> hi & 1:
        high = ZERO
    else:
        high = store.get(row + hi)
        if high is None:
            high = kl_at_every_candidate(cache, hi, ys)
        else:
            cache.hits += 1
    coeffs = list(low.coeffs)
    if len(coeffs) <= len(high.coeffs):
        coeffs += [0] * (len(high.coeffs) + 1 - len(coeffs))
    for d, a in enumerate(high.coeffs, 1):
        coeffs[d] += a

    lengths = table.lengths
    ly = lengths[y]
    parity = table.odd if ly % 2 else ~table.odd
    mask = below[ys] & table.above[x] & table.descents[i] & parity
    while mask:
        bit = mask & -mask
        mask ^= bit
        z = bit.bit_length() - 1
        pz = store.get(row + z)
        if pz is None:
            pz = kl_at_every_candidate(cache, z, ys)
        else:
            cache.hits += 1
        shift = (ly - lengths[z]) // 2
        mu = pz.coeffs[shift - 1] if shift <= len(pz.coeffs) else 0
        if mu:
            if z == x:
                pxz = ONE
            else:
                pxz = store.get(z * size + x)
                if pxz is None:
                    pxz = kl_at_every_candidate(cache, x, z)
                else:
                    cache.hits += 1
            term = pxz.coeffs
            if len(coeffs) < shift + len(term):
                coeffs += [0] * (shift + len(term) - len(coeffs))
            for d, a in enumerate(term, shift):
                coeffs[d] -= mu * a

    p = checked(tuple(coeffs))
    if p is None or 2 * len(p.coeffs) > ly - lengths[x] + 1:
        raise ArithmeticError(f"P at positions {x}, {y} is not a KL polynomial")
    store[y * size + x] = p
    return p
