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
from math import factorial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SizeGuardError, SizeMismatchError

Perm = tuple[int, ...]


def is_permutation_word(word: Sequence[int]) -> bool:
    """
    Check that word is a permutation of [n] where n = len(word): its
    entries are ints (not floats or bools) that sort to 1, ..., n.

    >>> [is_permutation_word(w) for w in [(), (1,), (2, 1), (2, 2), (0, 1)]]
    [True, True, True, False, False]
    >>> is_permutation_word((2.0, 1.0)), is_permutation_word((True,))
    (False, False)
    """
    return (set(map(type, word)) <= {int}
            and sorted(word) == list(range(1, len(word) + 1)))


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


def _contains_2143(v: Perm) -> bool:
    """
    v contains 2143 iff, for some split s, the least top of an inversion
    inside v[:s] is below the greatest bottom of an inversion inside
    v[s:].  Over a bitmask of the values seen, a forward pass gives each
    entry's successor (the least top of an inversion ending there) and a
    backward pass its predecessor.
    """
    lows, low, seen = [], len(v) + 1, 0
    for x in v:
        lows.append(low)
        above = seen >> x
        if above:
            top = x + (above & -above).bit_length() - 1
            if top < low:
                low = top
        seen |= 1 << x
    high, seen = 0, 0
    for s in range(len(v) - 1, 0, -1):
        x = v[s]
        below = seen & ((1 << x) - 1)
        if below:
            bottom = below.bit_length() - 1
            if bottom > high:
                high = bottom
        if lows[s] < high:
            return True
        seen |= 1 << x
    return False


def _contains_1324(v: Perm) -> bool:
    """
    v contains 1324 iff some inversion j < k (v_j > v_k) has an earlier
    entry below v_k and a later entry above v_j: prefix minima and suffix
    maxima decide it.  The suffix maxima fall as k moves right, so the
    scan from j stops at the first k with nothing above v_j after it.
    """
    n = len(v)
    highs, high = [0] * n, 0
    for k in range(n - 1, -1, -1):
        highs[k] = high
        if v[k] > high:
            high = v[k]
    low = n + 1
    for j, x in enumerate(v):
        if x < low:
            low = x
            continue
        for k in range(j + 1, n):
            if highs[k] <= x:
                break
            if low < v[k] < x:
                return True
    return False


# Exact kernels for the two patterns of the paper's positivity theorem.
_KERNELS = {(1, 3, 2, 4): _contains_1324, (2, 1, 4, 3): _contains_2143}


def avoids(v: Perm, *patterns: Perm) -> bool:
    """
    True iff none of the patterns occurs in v (longer patterns cannot).
    The host is checked once; 1324 and 2143 go to their kernels, and
    every other pattern to :func:`pattern_occurs`.

    >>> avoids((2, 4, 1, 3), (1, 3, 2, 4), (2, 1, 4, 3))
    True
    """
    if not is_permutation_word(v):
        raise ValueError(f"host {v} must be a permutation")
    for p in patterns:
        if len(p) > len(v):
            continue
        kernel = _KERNELS.get(p)
        # p equals a kernel's pattern, so only its entry types are unchecked.
        if kernel and set(map(type, p)) <= {int}:
            if kernel(v):
                return False
        elif pattern_occurs(v, p):  # rejects a bad pattern
            return False
    return True


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
    # The running maximum of w_1..w_j equals j iff w([j]) = [j].  A
    # comparison and a counter, not max() and enumerate: the structural
    # sweeps call this once per word.
    top = j = 0
    for x in w[:-1]:
        j += 1
        if x > top:
            top = x
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
    is set iff perms[j] <= perms[k].  Bit k of ``descents[i]`` is set iff
    ``perms[k][i] > perms[k][i + 1]`` (a right descent at the 0-based
    position i), and bit k of ``odd`` iff l(perms[k]) is odd.
    ``times_s[i][k]`` is the position of perms[k] times s_{i+1} (entries
    i and i + 1 swapped), ``moves[i]`` pairs each offset
    ``times_s[i][k] - k`` with the bitset of the k it moves by, ascending
    (see :func:`times_s_bits`), and ``first_descent[k]`` is the smallest
    such descent i of perms[k], or -1 for the identity.  Left
    multiplication by w_0 sends position k to ``len(perms) - 1 - k`` and
    reverses the order, so the upper interval of perms[k] is
    ``below[len(perms) - 1 - k]`` read through that map.
    """

    perms: tuple[Perm, ...]
    lengths: tuple[int, ...]
    index: Mapping[Perm, int]
    below: tuple[int, ...]
    descents: tuple[int, ...]
    odd: int
    times_s: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[tuple[int, int], ...], ...]
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


def times_s_bits(bits: int, moves: Iterable[tuple[int, int]]) -> int:
    """
    The positions of the products with s_{i+1} of the positions in
    ``bits``, for ``moves`` = ``BruhatTable.moves[i]``: one masked shift
    per offset.

    >>> t = bruhat_table(3)
    >>> [format_perm(t.perms[j]) for j in iter_bits(0b11)]
    ['123', '132']
    >>> [format_perm(t.perms[j]) for j in iter_bits(times_s_bits(0b11, t.moves[0]))]
    ['213', '312']
    """
    out = 0
    for offset, mask in moves:
        part = bits & mask
        out |= part << offset if offset > 0 else part >> -offset
    return out


def _first_hits(masks: Sequence[int], order: Iterable[int],
                size: int) -> tuple[int, ...]:
    """
    For each position k < size, the first i in ``order`` with bit k of
    ``masks[i]`` set, or -1 when there is none.
    """
    hits = [-1] * size
    remaining = (1 << size) - 1
    for i in order:
        hit = masks[i] & remaining
        remaining ^= hit
        for k in iter_bits(hit):
            hits[k] = i
    return tuple(hits)


@lru_cache(maxsize=None)
def bruhat_table(n: int) -> BruhatTable:
    """
    The :class:`BruhatTable` of S_n (guarded at n <= 7, where it holds
    5040 bitsets of 5040 bits).

    ``below`` comes from the lifting property, not from comparisons: if
    s is a right descent of w, then u <= w iff u <= ws or us <= ws, so
    below(w) = below(ws) | below(ws)s.  Swapping a descent pair makes
    the word lexicographically smaller, so ws is built before w.

    A bitset is multiplied by s_{i+1} with masked shifts, not bit by bit.
    Of the Lehmer digits of a lexicographic index, only the pair (a, b)
    at positions i and i + 1 changes: an ascent (a <= b) becomes
    (b + 1, a) and a descent becomes (b, a - 1), so the index moves by
    an offset fixed by b - a, or by a - b.  That makes 2(n - 1 - i)
    groups of positions, each moved by one shift, and the last descent
    of w, with the fewest groups, is the s used.  The same offsets give
    ``times_s`` run by run, and each lift of ``below`` gives
    l(w) = l(ws) + 1.  The groups that move down make ``descents``, and
    each position's first and last descent are the first mask that holds
    it, read in order or in reverse.  So no word is sliced, hashed,
    counted or scanned for them.

    >>> t = bruhat_table(3)
    >>> [format_perm(t.perms[j]) for j in iter_bits(t.below[t.index[(2, 3, 1)]])]
    ['123', '132', '213', '231']
    """
    if n > BRUHAT_TABLE_GUARD:
        raise SizeGuardError(
            f"Bruhat tables are guarded at n <= {BRUHAT_TABLE_GUARD}")
    perms = tuple(symmetric_group(n))
    size = len(perms)
    # index and times_s take their ints from this one tuple, so the table
    # holds one int object per position.
    positions = tuple(range(size))
    index = dict(zip(perms, positions))
    # place[j] = (n - 1 - j)! weighs Lehmer digit j of an index.  For s_{i+1}
    # the index splits into periods of (n - i)!, each a run of (n - 1 - i)!
    # consecutive positions per digit pair (a, b) at i and i + 1, and the
    # whole run moves by the offset of (a, b).
    place = [factorial(n - 1 - j) for j in range(n)]
    times_s, moves = [], []
    for i in range(n - 1):
        run, period = place[i + 1], place[i] * (n - i)
        pairs = []
        for a in range(n - i):
            for b in range(n - 1 - i):
                new = (b + 1, a) if a <= b else (b, a - 1)
                pairs.append((a * place[i] + b * run,
                              (new[0] - a) * place[i] + (new[1] - b) * run))
        starts = range(0, size, period)
        times_s.append(tuple(itertools.chain.from_iterable(
            positions[start + p + offset:start + p + offset + run]
            for start in starts for p, offset in pairs)))
        # moves[i] pairs each offset with the bitset of the positions it
        # moves: one period's runs, repeated by one product without carries.
        blocks = defaultdict(int)
        for p, offset in pairs:
            blocks[offset] |= ((1 << run) - 1) << p
        repeat = sum(1 << start for start in starts)
        moves.append(tuple((offset, block * repeat)
                           for offset, block in sorted(blocks.items())))
    times_s, moves = tuple(times_s), tuple(moves)
    # A descent is a move to a lexicographically smaller word.
    descents = tuple(sum(mask for offset, mask in groups if offset < 0)
                     for groups in moves)
    first_descent = _first_hits(descents, range(n - 1), size)
    last_descent = _first_hits(descents, reversed(range(n - 1)), size)
    below, lengths = [0] * size, [0] * size
    for k, i in enumerate(last_descent):
        if i >= 0:
            ws = times_s[i][k]
            below[k] = below[ws] | times_s_bits(below[ws], moves[i])
            lengths[k] = lengths[ws] + 1
        else:
            below[k] = 1 << k
    odd = sum(1 << k for k, lv in enumerate(lengths) if lv % 2)
    return BruhatTable(perms, tuple(lengths), MappingProxyType(index),
                       tuple(below), descents, odd, times_s, moves,
                       first_descent)


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
    return ("" if len(v) <= 9 else ",").join(map(str, v))
