"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation v is a tuple (v_1, ..., v_n) of distinct integers from [n];
``v[i - 1]`` is the image of i.  Everything is 1-indexed to match the
usual drawing conventions for permutation graphs, and every operation is
a pure function returning fresh immutable tuples, so values can be shared
freely across memo tables and worker threads.

The text form used by the CLI is comma-separated ("2,4,1,3"); for n <= 9
the compact digit string "2413" is also accepted.
"""
from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SizeGuardError, SizeMismatchError

Perm = tuple[int, ...]


def is_permutation_word(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of [n] where n = len(word).

    >>> [is_permutation_word(w) for w in [(), (1,), (2, 1), (2, 2), (0, 1)]]
    [True, True, True, False, False]
    """
    return sorted(word) == list(range(1, len(word) + 1))


def as_perm(word: Iterable[int]) -> Perm:
    """Validate and freeze a one-line word, raising ValueError if invalid."""
    v = tuple(word)
    if not is_permutation_word(v):
        raise ValueError(f"not a permutation of [{len(v)}]: {v}")
    return v


def identity(n: int) -> Perm:
    """
    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """
    The longest permutation w_0 = (n, n-1, ..., 1).

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(range(n, 0, -1))


def length(v: Perm) -> int:
    """
    Coxeter length = number of inversion pairs (i < j with v_i > v_j).

    >>> length((1, 2, 3, 4)), length((4, 3, 2, 1)), length((2, 4, 1, 3))
    (0, 6, 3)
    """
    n = len(v)
    return sum(1 for i in range(n) for j in range(i + 1, n) if v[i] > v[j])


def non_inversions(v: Perm) -> list[tuple[int, int]]:
    """
    All pairs <i, j> with i < j and v_i < v_j, in lexicographic order.

    >>> non_inversions((2, 4, 1, 3))
    [(1, 2), (1, 4), (3, 4)]
    """
    n = len(v)
    return [(i + 1, j + 1)
            for i in range(n) for j in range(i + 1, n) if v[i] < v[j]]


def compose(u: Perm, v: Perm) -> Perm:
    """
    Composition (u o v)(i) = u(v(i)).

    >>> compose((4, 3, 2, 1), (2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    if len(u) != len(v):
        raise SizeMismatchError(
            f"cannot compose permutations of sizes {len(u)} and {len(v)}")
    return tuple(u[x - 1] for x in v)


def inverse(v: Perm) -> Perm:
    """
    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    inv = [0] * len(v)
    for i, x in enumerate(v, start=1):
        inv[x - 1] = i
    return tuple(inv)


def bruhat_leq(x: Perm, y: Perm) -> bool:
    """
    Bruhat order via the sorted-prefix criterion: x <= y iff for every i
    the sorted set {x_1, ..., x_i} is entrywise <= the sorted set
    {y_1, ..., y_i}.

    >>> bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))
    False
    """
    if len(x) != len(y):
        raise SizeMismatchError(
            f"cannot compare permutations of sizes {len(x)} and {len(y)}")
    return all(a <= b
               for i in range(1, len(x) + 1)
               for a, b in zip(sorted(x[:i]), sorted(y[:i])))


def pattern_occurs(v: Perm, p: Perm) -> bool:
    """
    Does some subsequence of v have the same relative order as p?  Each
    subsequence is read in the order of p's values (its entry at the
    position of 1 in p first, then of 2, ...), and p occurs iff those
    entries increase.

    >>> pattern_occurs((5, 2, 1, 4, 3), (2, 1, 4, 3))
    True
    >>> pattern_occurs((2, 4, 1, 3), (1, 3, 2, 4))
    False
    """
    if not (is_permutation_word(v) and is_permutation_word(p)):
        raise ValueError(f"pattern {p} and host {v} must be permutations")
    m = len(p)
    if m > len(v):
        raise ValueError("pattern is longer than the host permutation")
    if m < 2:  # always occurs; itemgetter needs two indices for a tuple
        return True
    by_value = operator.itemgetter(*(i - 1 for i in inverse(p)))
    for entries in map(by_value, itertools.combinations(v, m)):
        previous = 0
        for x in entries:
            if x < previous:
                break
            previous = x
        else:
            return True
    return False


def avoids(v: Perm, *patterns: Perm) -> bool:
    """True iff none of the patterns occurs in v (longer patterns cannot)."""
    return not any(pattern_occurs(v, p)
                   for p in patterns if len(p) <= len(v))


def delete_entry(v: Perm, i: int) -> Perm:
    """
    Remove v_i from the one-line word and close the gaps: position
    indices above i and values above v_i each shift down by one.

    >>> delete_entry((6, 2, 7, 8, 5, 3, 1, 4), 2)
    (5, 6, 7, 4, 2, 1, 3)
    >>> delete_entry((2, 4, 1, 3), 1)
    (3, 1, 2)
    """
    if not 1 <= i <= len(v):
        raise IndexError(f"position {i} out of range for size {len(v)}")
    vi = v[i - 1]
    return tuple(x - 1 if x > vi else x
                 for pos, x in enumerate(v, start=1) if pos != i)


def is_in_maximal_parabolic(w: Perm) -> bool:
    """
    True iff w fixes some proper initial segment setwise, i.e. some
    1 <= j < n has w([j]) = [j].

    >>> is_in_maximal_parabolic((2, 1, 3, 4))
    True
    >>> is_in_maximal_parabolic((4, 3, 2, 1))
    False
    """
    top = 0
    for j in range(1, len(w)):
        top = max(top, w[j - 1])
        if top == j:
            return True
    return False


def symmetric_group(n: int) -> Iterator[Perm]:
    """All permutations of [n] in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


BRUHAT_TABLE_GUARD = 7


@dataclass(frozen=True, eq=False)
class BruhatTable:
    """
    S_n in :func:`symmetric_group` order, with its Bruhat order as
    Python-int bitsets over positions in that order: bit j of ``below[k]``
    is set iff perms[j] <= perms[k], and bit j of ``above[k]`` iff
    perms[j] >= perms[k].  Bit k of ``descents[i]`` is set iff
    ``perms[k][i] > perms[k][i + 1]`` (a right descent at the 0-based
    position i), and bit k of ``odd`` iff l(perms[k]) is odd.
    ``times_s[i][k]`` is the position of perms[k] times s_{i+1} (entries
    i and i + 1 swapped), and ``first_descent[k]`` is the smallest such
    descent i of perms[k], or -1 for the identity.  Left multiplication
    by w_0 sends position k to ``len(perms) - 1 - k``.
    """

    perms: tuple[Perm, ...]
    lengths: tuple[int, ...]
    index: Mapping[Perm, int]
    below: tuple[int, ...]
    above: tuple[int, ...]
    descents: tuple[int, ...]
    odd: int
    times_s: tuple[tuple[int, ...], ...]
    first_descent: tuple[int, ...]


def iter_bits(mask: int) -> Iterator[int]:
    """
    Positions of the set bits of a nonnegative mask, ascending.

    >>> list(iter_bits(0b101001))
    [0, 3, 5]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def bruhat_table(n: int) -> BruhatTable:
    """
    The :class:`BruhatTable` of S_n (guarded at n <= 7, where it holds
    2 * 5040 bitsets of 5040 bits).

    ``below`` comes from the lifting property, not from comparisons: if
    s is a right descent of w, then u <= w iff u <= ws or us <= ws, so
    below(w) = below(ws) | below(ws)s.  Swapping a descent pair makes
    the word lexicographically smaller, so ws is built before w.  Left
    multiplication by w_0 reverses the order and keeps right products,
    so above(w) = above(ws) | above(ws)s for a right ascent s of w, and
    ``above`` is built from the last position down.

    A bitset is multiplied by s_{i+1} with masked shifts, not bit by bit.
    Of the Lehmer digits of a lexicographic index, only the pair (a, b)
    at positions i and i + 1 changes: an ascent (a <= b) becomes
    (b + 1, a) and a descent becomes (b, a - 1), so the index moves by
    an offset fixed by b - a, or by a - b.  That makes 2(n - 1 - i)
    groups of positions, each moved by one shift, and the last descent
    (or ascent) of w, with the fewest groups, is the s used.

    >>> t = bruhat_table(3)
    >>> [format_perm(t.perms[j]) for j in iter_bits(t.below[t.index[(2, 3, 1)]])]
    ['123', '132', '213', '231']
    >>> [format_perm(t.perms[j]) for j in iter_bits(t.above[t.index[(2, 1, 3)]])]
    ['213', '231', '312', '321']
    """
    if n > BRUHAT_TABLE_GUARD:
        raise SizeGuardError(
            f"Bruhat tables are guarded at n <= {BRUHAT_TABLE_GUARD}")
    perms = tuple(symmetric_group(n))
    size = len(perms)
    index = {v: k for k, v in enumerate(perms)}
    lengths = tuple(map(length, perms))
    times_s = tuple(
        tuple(index[v[:i] + (v[i + 1], v[i]) + v[i + 2:]] for v in perms)
        for i in range(n - 1))
    first_descent = tuple(
        next((i for i in range(n - 1) if v[i] > v[i + 1]), -1) for v in perms)
    # moves[i] pairs each offset times_s[i][k] - k with the bitset of its k.
    moves = []
    for row in times_s:
        groups = defaultdict(list)
        for k, j in enumerate(row):
            groups[j - k].append(k)
        moves.append([(offset, sum(1 << k for k in ks))
                      for offset, ks in groups.items()])

    def lift(bits: int, i: int) -> int:
        """The positions in ``bits``, and their products with s_{i+1}."""
        lifted = bits
        for offset, mask in moves[i]:
            part = bits & mask
            lifted |= part << offset if offset > 0 else part >> -offset
        return lifted

    below, above = [0] * size, [0] * size
    for k, v in enumerate(perms):
        i = max((j for j in range(n - 1) if v[j] > v[j + 1]), default=-1)
        below[k] = lift(below[times_s[i][k]], i) if i >= 0 else 1 << k
    for k in reversed(range(size)):
        v = perms[k]
        i = max((j for j in range(n - 1) if v[j] < v[j + 1]), default=-1)
        above[k] = lift(above[times_s[i][k]], i) if i >= 0 else 1 << k
    # A descent is a move to a lexicographically smaller word.
    descents = tuple(sum(mask for offset, mask in groups if offset < 0)
                     for groups in moves)
    odd = sum(1 << k for k, lv in enumerate(lengths) if lv % 2)
    return BruhatTable(perms, lengths, MappingProxyType(index), tuple(below),
                       tuple(above), descents, odd, times_s, first_descent)


def parse_perm(text: str) -> Perm:
    """
    Parse "2,4,1,3" or (for n <= 9) the compact form "2413".

    >>> parse_perm("2,4,1,3") == parse_perm("2413")
    True
    """
    text = text.strip()
    if "," in text:
        word = [int(part) for part in text.split(",")]
    elif text.isdigit():
        word = [int(ch) for ch in text]
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    return as_perm(word)


def format_perm(v: Perm) -> str:
    """Compact digits for n <= 9, comma-separated beyond."""
    if len(v) <= 9:
        return "".join(str(x) for x in v)
    return ",".join(str(x) for x in v)
