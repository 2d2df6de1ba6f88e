"""Objects with p^2-bounded subgroup: pickets, bipickets, and the tableau
bijection, plus Hom lengths and automorphism-group orders.

An object is a multiset of indecomposables, and an indecomposable has
one form, the ``Indecomposable`` tuple (ell, m, r) of plain ints.  The
picket P(ell, m) = (ell, m, 0) is a cyclic subgroup of order p^ell inside
a cyclic group of order p^m (ell <= min(2, m), m >= 1: P(0, 0) is the
zero module and is refused); the bipicket T(m, r) = (2, m, r) is the
diagonal embedding of a cyclic p^2-bounded subgroup into a sum of two
cyclic groups of orders p^m, p^r with 1 <= r <= m-2.  The boundary case
r = m-1 is stored canonically as P(2, m).  ``Picket``, ``Bipicket`` and
``bipicket`` are the checked constructors of outside input.

The bijection with entries-<=2 Klein tableaux is one pass each way: one
n-ary direct sum of the summands' tableaux, and one count of summands.
That count has two layers: ``_chain_counts`` reads the chain's one
``tableaux.chain_columns`` pass (the 1-boxes, the forced subscripts and
the empty columns), and ``_summand_counts`` adds a level's own
((row, subs), ...) cells to it.  The decoder ``object_of_tableau`` makes
that pass itself; ``level_aut_orders`` is handed it, by the Hall memo
that also enumerates the chain's levels from it, and prices every level
of the chain from a single chain count, with no tableau or object built.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import EntryTooLarge
from .partitions import json_record, json_typed, partition, read_int
from .qforms import QOrderFactored
from .tableaux import KleinTableau, _unchecked, chain_columns, check_diagram_size, direct_sum_tableau


class Indecomposable(NamedTuple):
    """One summand, named by plain ints: P(ell, m) is (ell, m, 0) and
    T(m, r) is (2, m, r), so a bare (ell, m, r) tuple equals and hashes as
    the summand it names."""

    ell: int
    m: int
    r: int

    @property
    def size(self) -> int:
        return self.m + self.r

    def __str__(self) -> str:
        return f"T({self.m},{self.r})" if self.r else f"P({self.ell},{self.m})"


def Picket(ell: int, m: int) -> Indecomposable:
    """P(ell, m), checked: 0 <= ell <= min(2, m) and m >= 1."""
    if not 0 <= ell <= min(2, m) or m < 1:
        raise ValueError(f"invalid picket P_{ell}^{m}")
    return Indecomposable(ell, m, 0)


def Bipicket(m: int, r: int) -> Indecomposable:
    """T(m, r), checked: 1 <= r <= m-2."""
    if not 1 <= r <= m - 2:
        raise ValueError(f"invalid bipicket T({m},{r})")
    return Indecomposable(2, m, r)


def bipicket(m: int, r: int) -> Indecomposable:
    """Canonical constructor: T(m, m-1) is identified with P(2, m)."""
    if r == m - 1:
        return Picket(2, m)
    return Bipicket(m, r)


def _named(ell: int, m: int, r: int) -> Indecomposable:
    """The summand (ell, m, r) names, checked by ``Picket`` or ``Bipicket``."""
    if r and ell != 2:
        raise ValueError(f"invalid bipicket ({ell},{m},{r}): a bipicket has ell = 2")
    return Bipicket(m, r) if r else Picket(ell, m)


@dataclass(frozen=True)
class S2Object:
    """Multiset of indecomposables with positive multiplicities."""

    summands: tuple[tuple[Indecomposable, int], ...] = ()

    @classmethod
    def make(
        cls, mults: Mapping[tuple[int, int, int], int] | Iterable[tuple[tuple[int, int, int], int]]
    ) -> "S2Object":
        """Merge (summand, k) pairs, k an int, naming each key by ``_named``;
        pickets come first, then bipickets, each in tuple order."""
        items = mults.items() if isinstance(mults, Mapping) else mults
        agg: dict[tuple[int, int, int], int] = {}
        for x, k in items:
            if type(k) is not int:
                raise ValueError(f"multiplicity {k!r} is not an int")
            if k < 0:
                raise ValueError("multiplicities must be >= 0")
            if k:
                agg[x] = agg.get(x, 0) + k
        ordered = sorted(agg.items(), key=lambda it: (it[0][2] > 0, it[0]))
        return cls(tuple((_named(*x), k) for x, k in ordered))

    @classmethod
    def of(cls, *indecs: Indecomposable) -> "S2Object":
        return cls.make((x, 1) for x in indecs)

    def multiplicity(self, x: Indecomposable) -> int:
        for y, k in self.summands:
            if y == x:
                return k
        return 0

    def to_text(self) -> str:
        if not self.summands:
            return "0"
        bits = []
        for x, k in self.summands:
            bits.append(str(x) if k == 1 else f"{k}*{x}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {"summands": [
            {"kind": "T", "m": m, "r": r, "mult": k} if r
            else {"kind": "P", "ell": ell, "m": m, "mult": k}
            for (ell, m, r), k in self.summands
        ]}

    @classmethod
    def from_json(cls, data: dict) -> "S2Object":
        """Inverse of ``to_json``; ValueError on any malformed field."""
        pairs = []
        with json_record("object"):
            for item in json_typed(data["summands"], list):
                kind = item["kind"]
                if kind == "P":
                    x = Picket(json_typed(item["ell"], int), json_typed(item["m"], int))
                elif kind == "T":
                    x = bipicket(json_typed(item["m"], int), json_typed(item["r"], int))
                else:
                    raise ValueError(f"unknown summand kind {kind!r}")
                pairs.append((x, json_typed(item.get("mult", 1), int)))
        return cls.make(pairs)

    def __str__(self) -> str:
        return self.to_text()


_TERM = re.compile(r"(?:([^*]+)\*)? *([PT]) *\(([^,]*),([^)]*)\) *")


def parse_object(text: str) -> S2Object:
    """Parse the text form, e.g. 'T(4,2) + P(1,3)' or '2*P(0,1)'."""
    text = text.strip(" ")
    if text in ("", "0"):
        return S2Object.make({})
    pairs = []
    for chunk in text.split("+"):
        mt = _TERM.fullmatch(chunk)
        if not mt:
            raise ValueError(f"cannot parse summand {chunk!r}")
        k, kind, a, b = mt.groups("1")
        x = (Picket if kind == "P" else bipicket)(read_int(a), read_int(b))
        pairs.append((x, read_int(k)))
    return S2Object.make(pairs)


# ---------------------------------------------------------------------------
# the bijection with Klein tableaux (entries <= 2)


def _indec_tableau(x: Indecomposable) -> KleinTableau:
    ell, m, r = x
    if not r:
        gammas = tuple(partition((m - ell + i,)) for i in range(ell + 1))
        return _unchecked(gammas, (((m, (m - 1,)),),) if ell == 2 else ())
    gammas = (partition((m - 1, r - 1)), partition((m - 1, r)), partition((m, r)))
    return _unchecked(gammas, (((m, (r,)),),))


def tableau_of_object(obj: S2Object) -> KleinTableau:
    """Klein tableau of a direct sum of pickets and bipickets; each
    distinct summand's tableau is built once, however many its copies,
    after a diagram of its sum k * size boxes is checked against the cap."""
    check_diagram_size(sum(k * x.size for x, k in obj.summands))
    return direct_sum_tableau(*(tab for x, k in obj.summands for tab in [_indec_tableau(x)] * k))


def _chain_counts(columns) -> dict[tuple[int, int, int], int]:
    """The summands that a chain (g0, g1, g2) (padded with its top) gives
    every object of its level before any symbol 2_r is read, from its
    ``chain_columns`` pass: a picket P(1, m) per box of g1 \\ g0 in
    row m, and a P(0, m) per empty column of height m, less one per
    forced subscript 2_m in row m+1 (iii), since the cells count every
    2_m of row m+1 as a P(0, m) and only the free ones are."""
    _, caps, forced, empty = columns
    counts = {(1, m, 0): k for m, k in caps.items()}
    for m, k in empty.items():
        counts[0, m, 0] = k
    for m, k in forced.items():
        counts[0, m - 1, 0] = counts.get((0, m - 1, 0), 0) - k
    return counts


def _summand_counts(base, cells) -> dict[tuple[int, int, int], int]:
    """The multiplicity of each summand of the objects whose entries-<=2
    tableau has the level-2 cells ((row m, subs), ...) on a chain whose
    own count is ``base``, ``_chain_counts`` of the chain.

    A summand is counted on its bare (ell, m, r) tuple, which equals its
    ``Indecomposable``: (ell, m, 0) is P(ell, m) and (2, m, r) is T(m, r).
    Each symbol 2_r in row m is a bipicket T(m, r) (a picket P(2, m) when
    r = m-1) and uses a 1-box of row r; the 1-boxes left over are pickets
    P(1, m).  A P(0, m) is an empty column of height m, or a column of
    height m+1 whose only symbol is a free 2_m at the bottom: one of the
    2_m in row m+1 beyond those forced (iii).  Valid cells never overdraw
    the 1-boxes (iv).  Every count is a plain dict, filled per column and
    per symbol, with a key only for a row or a height that occurs.
    """
    counts = dict(base)
    for m, subs in cells:
        for r in subs:
            counts[1, r, 0] -= 1
            if r == m - 1:
                counts[0, r, 0] = counts.get((0, r, 0), 0) + 1
                r = 0
            counts[2, m, r] = counts.get((2, m, r), 0) + 1
    return counts


def _level2(tab: KleinTableau):
    """The chain (g0, g1, g2) of a tableau, padded with its top, and its
    level of entry 2."""
    gs = tab.gammas
    e = len(gs) - 1
    return (gs[0], gs[min(1, e)], gs[min(2, e)]), (tab.levels + ((),))[0]


def object_of_tableau(tab: KleinTableau) -> S2Object:
    """Decode an entries-<=2 Klein tableau into its multiset of summands.

    Inverse of ``tableau_of_object``; raises EntryTooLarge when any entry
    exceeds 2.  The summands are read by ``_summand_counts``.
    """
    gs = tab.gammas
    e = len(gs) - 1
    if any(gs[ell] != gs[ell - 1] for ell in range(3, e + 1)):
        raise EntryTooLarge(f"tableau has entries up to {e}")
    chain, cells = _level2(tab)
    return S2Object.make(_summand_counts(_chain_counts(chain_columns(*chain)), cells))


def enumerate_indecomposables(max_size: int) -> tuple[Indecomposable, ...]:
    """All pickets and bipickets of total module size at most max_size,
    in the order of ``S2Object.make``."""
    pickets = [Picket(ell, m) for ell in range(3) for m in range(max(ell, 1), max_size + 1)]
    bipickets = [
        Bipicket(m, r) for m in range(3, max_size) for r in range(1, min(m - 2, max_size - m) + 1)
    ]
    return tuple(pickets + bipickets)


def enumerate_objects(max_size: int) -> tuple[S2Object, ...]:
    """All objects of total module size at most max_size, zero included."""
    indecs = enumerate_indecomposables(max_size)
    out: list[S2Object] = []

    def rec(idx: int, budget: int, acc: list[tuple[Indecomposable, int]]):
        if idx == len(indecs):
            out.append(S2Object.make(list(acc)))
            return
        x = indecs[idx]
        for k in range(budget // x.size + 1):
            if k:
                acc.append((x, k))
            rec(idx + 1, budget - k * x.size, acc)
            if k:
                acc.pop()

    rec(0, max_size, [])
    return tuple(out)


# ---------------------------------------------------------------------------
# Hom lengths


@lru_cache(maxsize=1 << 14)
def hom_len_indec(x: Indecomposable, y: Indecomposable) -> int:
    """log_q of the number of morphisms from x to y.

    Picket-to-picket, bipicket-to-picket and picket-to-bipicket cases are
    closed forms; bipicket-to-bipicket goes through the tableau route so
    the two never collapse into one implementation.  That route builds a
    tableau per call, so every length is memoised (at most 2^14 pairs).
    """
    (u, v, w), (ell, m, r) = x, y
    if not w and not r:
        return min(m, v - max(0, u - ell))
    if not r:  # T(v, w) into P(ell, m)
        if ell == 0:
            return min(v - 1, m) + min(w - 1, m)
        if ell == 1:
            return min(v - 1, m) + min(w, m)
        return min(v, m) + min(w, m)
    if not w:  # P(u, v) into T(m, r)
        if u == 0:
            return min(v, r) + min(v, m)
        if u == 1:
            return min(v - 1, r) + min(v, m)
        return min(v - u + 1, r) + min(v - u + 1, m)
    return hom_len_tableau(_indec_tableau(x), y)


def hom_len_obj(obj: S2Object, y: Indecomposable) -> int:
    """Additivity in the source: sum of multiplicities times indec lengths."""
    return sum(k * hom_len_indec(x, y) for x, k in obj.summands)


def _row_sum(g, m: int) -> int:
    """The boxes of g in rows 1..m."""
    boxes = 0
    # a plain loop: min() per part costs several times more
    for part in g:
        boxes += part if part < m else m
    return boxes


def _hom_len(gs, cells, y: tuple[int, int, int]) -> int:
    """Hom length from any object with the chain gs = (g0, g1, g2) and the
    level-2 cells into the summand y = (ell, m, r).

    For a picket target P(ell, m) it reads off the chain: the boxes of
    g_ell in rows 1..m.  Bipicket targets T(m, r) reduce to picket targets
    plus the count b of symbols 2_u in rows r+2..m with u <= r.
    """
    ell, m, r = y
    if not r:
        return _row_sum(gs[ell], m)
    g0, g1, g2 = gs
    b = sum(1 for row, subs in cells if r + 2 <= row <= m for u in subs if u <= r)
    return b + _row_sum(g2, r + 1) + _row_sum(g0, r) + _row_sum(g1, m) - _row_sum(g1, r + 1)


def hom_len_tableau(tab: KleinTableau, y: Indecomposable) -> int:
    """Hom length from ANY object with the given Klein tableau into y,
    read by ``_hom_len`` from the chain and the level of entry 2."""
    return _hom_len(*_level2(tab), y)


# ---------------------------------------------------------------------------
# automorphism-group orders


def end_power(obj: S2Object) -> int:
    """log_q of the endomorphism-ring order of the object: sum_y k_y times
    the Hom length from the object into y, as ``level_aut_orders`` reads it."""
    return sum(k * hom_len_obj(obj, y) for y, k in obj.summands)


def _aut_parts(end: int, mults) -> QOrderFactored:
    """Order of Aut from log_q #End and the summand multiplicities.

    In a Krull-Remak-Schmidt category the units of End are the preimage of
    the units of End modulo its radical, a product of matrix rings over the
    residue field; hence #Aut = #End * prod(|GL_k| / q^(k^2)) over the
    multiplicities k.  With |GL_k| = q^(k(k-1)/2) prod_{j<=k} (q^j - 1),
    that is q to the power end - sum k^2 + sum k(k-1)/2 =
    end - sum k(k+1)/2, and the exponent vector whose entry j, for j up
    to the largest k, is the number of summands of multiplicity >= j.
    """
    ks = sorted(mults)
    power = end - sum(k * (k + 1) // 2 for k in ks)
    # with ks ascending, len(ks) - bisect_left(ks, j) of them are >= j
    top = ks[-1] if ks else 0
    return QOrderFactored(power, tuple(len(ks) - bisect_left(ks, j) for j in range(1, top + 1)))


def aut_order(obj: S2Object) -> QOrderFactored:
    """Order of the automorphism group, in factored form (``_aut_parts``)."""
    return _aut_parts(end_power(obj), [k for _, k in obj.summands])


def level_aut_orders(chain, columns, levels) -> tuple[QOrderFactored, ...]:
    """``aut_order`` of the objects whose entries-<=2 tableau has the chain
    (low, mid, top) (padded with its top) and, in turn, each level of
    ``levels``, a tuple of level-2 cells ((row m, subs), ...), as a
    tableau's ``levels[0]``; one order per level, in order.

    Only plain ints are read.  ``columns`` is the chain's
    ``chain_columns`` pass, which the caller makes once; ``_chain_counts``
    turns it into the chain's count, and ``_summand_counts`` each level's
    multiplicities k_y; End is sum_y k_y * (the Hom length from the
    tableau into y), one ``_hom_len`` per distinct summand y.
    """
    base = _chain_counts(columns)
    orders = []
    for cells in levels:
        end = 0
        mults = []
        for y, k in _summand_counts(base, cells).items():
            if k:
                end += k * _hom_len(chain, cells, y)
                mults.append(k)
        orders.append(_aut_parts(end, mults))
    return tuple(orders)


def aut_order_module(beta) -> QOrderFactored:
    """Order of the automorphism group of the module of the given type,
    computed as the automorphism group of a sum of empty pickets."""
    beta = partition(beta)
    return aut_order(S2Object.make({Picket(0, m): beta.count(m) for m in set(beta)}))
