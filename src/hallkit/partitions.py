"""Partition arithmetic on weakly decreasing tuples of positive integers,
and the rules that every reader of outside input shares: ``read_int``,
``json_typed`` and ``json_record``.

Convention used throughout the package: the parts of a partition are the
COLUMN lengths of its diagram, so "row m" always means the m-th row of
the diagram and has ``conjugate(lam)[m-1]`` boxes.  Most tableau
literature uses parts-as-rows; every formula in this package is stated
for parts-as-columns.
"""

from __future__ import annotations

import operator
import re
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, zip_longest
from math import comb
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of part sizes into a Partition tuple.

    Trailing zeros are stripped; anything else that is not weakly
    decreasing and positive, or not an iterable of parts (a str or bytes
    too), raises ValueError.  A hashable tuple of at most 64 parts is read
    once per process, by a least-recently-used memo of at most 2^14
    entries; a longer tuple, a list or a generator is read afresh, and an
    error is never memoised, so it is raised on every call.
    """
    if type(parts) is tuple and len(parts) <= 64:  # bounds an entry's bytes
        try:
            return _normalised(parts)
        except TypeError:  # an unhashable part, or one int() refuses
            pass
    if isinstance(parts, (str, bytes)) or not hasattr(parts, "__iter__"):
        raise ValueError(f"parts must be an iterable of integers, not {type(parts).__name__}")
    return _normalised.__wrapped__(parts)


@lru_cache(maxsize=1 << 14)
def _normalised(parts: Iterable[int]) -> Partition:
    t = tuple(map(int, parts))
    while t and t[-1] == 0:
        t = t[:-1]
    if t and min(t) <= 0:
        raise ValueError(f"parts must be positive: {t}")
    if any(map(operator.lt, t, t[1:])):
        raise ValueError(f"parts must be weakly decreasing: {t}")
    return t


def read_int(text: str) -> int:
    """The one rule for a numeral in outside text: ASCII digits after at most
    one '-', with ASCII spaces around.  Anything else, such as '1_0', '+2',
    another script's digits or a non-ASCII space, is ValueError."""
    if not re.fullmatch(r" *-?[0-9]+ *", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def json_typed(value, kind: type, of: type | None = None):
    """value itself when its type is exactly kind, and each item's is of
    when of is given, else TypeError: the check of each number and list a
    JSON reader takes, so that a float, a string or a bool (an int to
    ``isinstance``) is no int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    for item in value if of else ():
        json_typed(item, of)
    return value


@contextmanager
def json_record(what: str):
    """A missing field or a malformed value of a `what` JSON record read
    in this block, as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} JSON lacks the field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def parse(text: str) -> Partition:
    """Parse the text form: comma-separated decreasing integers, '' = empty."""
    if not text.strip(" "):
        return ()
    return partition(map(read_int, text.split(",")))


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
    """Componentwise containment mu <= lam (pad with zeros): no part of mu
    past lam's length, and none above its partner."""
    return not any(mu[len(lam):]) and all(map(operator.ge, lam, mu))


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
