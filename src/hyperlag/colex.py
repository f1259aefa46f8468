"""Colexicographic order on r-element sets of positive integers.

An r-set is a sorted tuple of distinct 1-based vertex labels. A < B in colex
iff the largest element of the symmetric difference lies in B. Ranks are
1-based: the first 3-sets are 123 < 124 < 134 < 234 < 125 < ...; the first
C(t, r) r-sets are exactly the r-subsets of {1, ..., t}.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from .errors import ResourceLimitError

RSet = tuple[int, ...]

#: Most r-sets `colex_sets` lists in one call, a set of r > 3 labels counting
#: as r/3 sets. With the enumerator's rank tables built on a listing, a set
#: costs about 340 bytes at r = 3 and 400 at r = 6; in a listing alone,
#: 56 + 8r. So a listing and its tables stay under about 350 MB.
MAX_TABLE_SETS = 1_000_000


def rset(elements: Iterable[int]) -> RSet:
    """Canonicalize an iterable of vertex labels into a sorted r-set tuple.

    Raises ValueError on duplicates, non-positive labels, or empty input.
    """
    out = tuple(sorted(elements))
    if not out:
        raise ValueError("an r-set needs at least one element")
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"vertex labels must be integers, got {v!r}")
    if out[0] < 1:
        raise ValueError(f"vertex labels are 1-based, got {out[0]}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate vertex in r-set: {out}")
    return out


def colex_rank(a: Iterable[int]) -> int:
    """1-based position of the r-set in the colex order of all r-sets."""
    sa = rset(a)
    return 1 + sum(comb(v - 1, i + 1) for i, v in enumerate(sa))


def _colex_key(a: RSet) -> RSet:
    """Unchecked colex sort key for r-sets of one size: the reversed tuple.

    The top coordinate where two such sets differ is the largest element of
    their symmetric difference, so lexicographic order on it is colex order.
    """
    return a[::-1]


def colex_sets(n: int, r: int) -> list[RSet]:
    """Every r-subset of {1, ..., n}, in colex order.

    Raises ResourceLimitError, before listing any, past `MAX_TABLE_SETS` sets,
    a set of r > 3 labels counting as r/3.
    """
    weighed = -(-comb(n, r) * max(r, 3) // 3)  # rounded up, so exact against the cap
    if weighed > MAX_TABLE_SETS:
        raise ResourceLimitError(
            f"r-set limit exceeded: C({n}, {r}) = {comb(n, r)} r-sets of {r} labels"
            f" count as {weighed} > MAX_TABLE_SETS = {MAX_TABLE_SETS}"
        )
    # Descending tuples in lexicographic order run through colex order backwards.
    return [c[::-1] for c in combinations(range(n, 0, -1), r)][::-1]


def colex_unrank(rank: int, r: int) -> RSet:
    """Inverse of colex_rank: the r-set at the given 1-based position."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if r < 1:
        raise ValueError(f"set size must be >= 1, got {r}")
    k = rank - 1
    out = []
    for size in range(r, 0, -1):
        c = size - 1
        while comb(c + 1, size) <= k:
            c += 1
        out.append(c + 1)
        k -= comb(c, size)
    return tuple(reversed(out))
