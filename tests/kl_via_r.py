"""
Test oracle for the Kazhdan-Lusztig recursion: P_{x,y} by inverting
R-polynomials, computed by brute force on tuples with ``bruhat_leq``.
It shares nothing with ``klimm.klpoly.kl_at`` but ``IntPolynomial``, so
the two routes can be cross-checked on small groups.
"""
from functools import lru_cache

from klimm.klpoly import ONE, ZERO, IntPolynomial
from klimm.perm import Perm, bruhat_leq, length, symmetric_group

Q = IntPolynomial((0, 1))


def degree(p: IntPolynomial) -> int:
    """Degree, with the zero polynomial assigned -1."""
    return len(p.coeffs) - 1


def coeff(p: IntPolynomial, d: int) -> int:
    """The q^d coefficient of p, 0 past either end."""
    return p.coeffs[d] if 0 <= d < len(p.coeffs) else 0


def add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    long, short = sorted((a.coeffs, b.coeffs), key=len, reverse=True)
    return IntPolynomial(tuple(c + (short[i] if i < len(short) else 0)
                               for i, c in enumerate(long)))


def scaled(p: IntPolynomial, scalar: int) -> IntPolynomial:
    return IntPolynomial(tuple(scalar * c for c in p.coeffs))


def sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    return add(a, scaled(b, -1))


def mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero or b.is_zero:
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial(tuple(out))


def mirrored(p: IntPolynomial, top: int) -> IntPolynomial:
    """q^top * p(1/q); requires degree <= top."""
    if degree(p) > top:
        raise ValueError("mirror degree below polynomial degree")
    return IntPolynomial((0,) * (top - degree(p)) + p.coeffs[::-1])


@lru_cache(maxsize=None)
def r_polynomial(x: Perm, y: Perm) -> IntPolynomial:
    """
    The R-polynomial R_{x,y}(q), by the standard recursion on a right
    descent of y.
    """
    if x == y:
        return ONE
    if not bruhat_leq(x, y):
        return ZERO
    i = next(k for k in range(len(y) - 1) if y[k] > y[k + 1])
    ys = y[:i] + (y[i + 1], y[i]) + y[i + 2:]
    xs = x[:i] + (x[i + 1], x[i]) + x[i + 2:]
    if x[i] > x[i + 1]:
        return r_polynomial(xs, ys)
    return add(mul(sub(Q, ONE), r_polynomial(x, ys)),
               mul(Q, r_polynomial(xs, ys)))


def kl_table_via_r(y: Perm) -> dict[Perm, IntPolynomial]:
    """
    All P_{z,y} for z <= y, computed by downward induction from the
    defining identity q^(l(y)-l(z)) P_{z,y}(1/q) = sum over z <= w <= y
    of R_{z,w} P_{w,y}.  The low-degree half of the right side determines
    P_{z,y}; the mirrored high half is verified as a consistency check.
    """
    y = tuple(y)
    below = sorted((z for z in symmetric_group(len(y)) if bruhat_leq(z, y)),
                   key=length, reverse=True)
    table: dict[Perm, IntPolynomial] = {y: ONE}
    ly = length(y)
    for z in below:
        if z == y:
            continue
        total = ZERO
        for w, p_w in table.items():
            if bruhat_leq(z, w):
                total = add(total, mul(r_polynomial(z, w), p_w))
        gap = ly - length(z)
        p = scaled(IntPolynomial(total.coeffs[:(gap + 1) // 2]), -1)
        if sub(mirrored(p, gap), p) != total:
            raise ArithmeticError(
                f"R-polynomial inversion is inconsistent at z={z}, y={y}")
        table[z] = p
    return table


def kl_polynomial_via_r(x: Perm, y: Perm) -> IntPolynomial:
    """P_{x,y} through the R-polynomial route (small n)."""
    x, y = tuple(x), tuple(y)
    if not bruhat_leq(x, y):
        return ZERO
    return kl_table_via_r(y)[x]
