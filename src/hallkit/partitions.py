"""Partition arithmetic on weakly decreasing tuples of positive integers.

Convention used throughout the package: the parts of a partition are the
COLUMN lengths of its diagram, so "row m" always means the m-th row of
the diagram and has ``conjugate(lam)[m-1]`` boxes.  Most tableau
literature uses parts-as-rows; every formula in this package is stated
for parts-as-columns.
"""

from __future__ import annotations

import operator
from itertools import chain, zip_longest
from math import comb
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of part sizes into a Partition tuple.

    Trailing zeros are stripped; anything else that is not weakly
    decreasing and positive raises ValueError.
    """
    t = tuple(map(int, parts))
    while t and t[-1] == 0:
        t = t[:-1]
    if t and min(t) <= 0:
        raise ValueError(f"parts must be positive: {t}")
    if any(map(operator.lt, t, t[1:])):
        raise ValueError(f"parts must be weakly decreasing: {t}")
    return t


def parse(text: str) -> Partition:
    """Parse the text form: comma-separated decreasing integers, '' = empty."""
    text = text.strip()
    if not text:
        return ()
    return partition(int(tok) for tok in text.split(","))


def fmt(lam: Partition) -> str:
    """Text form of a partition; the empty partition is the empty string."""
    return ",".join(str(x) for x in lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose the diagram: conjugate(lam)[i-1] = #{j : lam_j >= i}."""
    if not lam:
        return ()
    out = []
    for i in range(1, lam[0] + 1):
        out.append(sum(1 for x in lam if x >= i))
    return tuple(out)


def row_length(lam: Partition, m: int) -> int:
    """Number of boxes in row m of the diagram (0 if m exceeds all parts)."""
    if m < 1:
        raise ValueError("row index must be >= 1")
    return sum(1 for x in lam if x >= m)


def moment(lam: Partition) -> int:
    """Sum of binomial(c, 2) over the conjugate parts c.

    Equals sum((i-1) * lam_i, i >= 1); governs Hall-polynomial degrees.
    """
    return sum(comb(c, 2) for c in conjugate(lam))


def contains(lam: Partition, mu: Partition) -> bool:
    """Componentwise containment mu <= lam (pad with zeros)."""
    return all(a >= b for a, b in zip_longest(lam, mu, fillvalue=0))


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """True iff mu <= lam componentwise and every column grows by at most 1."""
    return all(0 <= a - b <= 1 for a, b in zip_longest(lam, mu, fillvalue=0))


def merge(*lams: Partition) -> Partition:
    """Parts of a direct sum: the multiset union, sorted decreasingly."""
    return tuple(sorted(chain.from_iterable(lams), reverse=True))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts bounded by max_part, lex-descending."""
    if n < 0:
        return
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, bound, ())
