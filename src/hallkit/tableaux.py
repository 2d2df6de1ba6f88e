"""LR and Klein tableaux: validation, enumeration, restriction, direct sums.

An LR tableau is a weakly increasing chain of partitions
``[g0, ..., ge]`` whose consecutive skews are horizontal strips and which
satisfies the lattice permutation property.  A Klein tableau refines it:
every box with entry ``ell >= 2`` carries a subscript ``r``.  Subscripts
are stored per (entry, row) cell as a weakly increasing multiset; the
in-row normalization makes that representation lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import RangeError
from .partitions import (
    Partition,
    conjugate,
    contains,
    fmt,
    is_horizontal_strip,
    merge,
    parse,
    partition,
    row_length,
)

Cell = tuple[int, int]  # (entry, row)


@dataclass(frozen=True)
class LRTableau:
    """Chain of partitions [g0, ..., ge]; entry ell fills g_ell \\ g_{ell-1}."""

    gammas: tuple[Partition, ...]

    def __post_init__(self):
        if not self.gammas:
            raise ValueError("an LR tableau needs at least one partition")

    @property
    def e(self) -> int:
        return len(self.gammas) - 1

    @property
    def beta(self) -> Partition:
        return self.gammas[-1]

    @property
    def base(self) -> Partition:
        return self.gammas[0]


@dataclass(frozen=True)
class KleinTableau:
    """An LR chain plus per-(entry, row) subscript multisets.

    ``subscripts`` holds triples (entry, row, subs) with subs a weakly
    increasing tuple, sorted by (entry, row); empty cells are omitted.
    """

    gammas: tuple[Partition, ...]
    subscripts: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    @classmethod
    def make(
        cls,
        gammas: Sequence[Sequence[int]],
        subscripts: Mapping[Cell, Iterable[int]] | None = None,
    ) -> "KleinTableau":
        gs = tuple(partition(g) for g in gammas)
        cells = []
        for (entry, row), subs in (subscripts or {}).items():
            subs = tuple(sorted(int(r) for r in subs))
            if subs:
                cells.append((int(entry), int(row), subs))
        return cls(gs, tuple(sorted(cells)))

    @property
    def e(self) -> int:
        return len(self.gammas) - 1

    @property
    def beta(self) -> Partition:
        return self.gammas[-1]

    @property
    def base(self) -> Partition:
        return self.gammas[0]

    @property
    def lr(self) -> LRTableau:
        return LRTableau(self.gammas)

    def subs_at(self, entry: int, row: int) -> tuple[int, ...]:
        for ell, m, subs in self.subscripts:
            if ell == entry and m == row:
                return subs
        return ()

    def count_symbols(self, entry, rows=None, subs=None) -> int:
        """Number of symbols with the given entry, row in rows, subscript in subs."""
        total = 0
        for ell, m, ss in self.subscripts:
            if ell != entry:
                continue
            if rows is not None and m not in rows:
                continue
            total += len(ss) if subs is None else sum(1 for r in ss if r in subs)
        return total

    def to_json(self) -> dict:
        return {
            "gammas": [list(g) for g in self.gammas],
            "subscripts": [
                {"entry": ell, "row": m, "subs": list(ss)}
                for ell, m, ss in self.subscripts
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KleinTableau":
        subs = {
            (item["entry"], item["row"]): item["subs"]
            for item in data.get("subscripts", [])
        }
        return cls.make(data["gammas"], subs)

    def to_text(self) -> str:
        """Compact text: gammas joined by '/', then ';entry@row:r1+r2,...'."""
        glist = "/".join(fmt(g) or "-" for g in self.gammas)
        if not self.subscripts:
            return glist
        cells = ",".join(
            f"{ell}@{m}:" + "+".join(str(r) for r in ss)
            for ell, m, ss in self.subscripts
        )
        return f"{glist};{cells}"

    @classmethod
    def from_text(cls, text: str) -> "KleinTableau":
        text = text.strip()
        gpart, _, spart = text.partition(";")
        gammas = [parse("" if tok == "-" else tok) for tok in gpart.split("/")]
        subs: dict[Cell, list[int]] = {}
        if spart:
            for chunk in spart.split(","):
                cell, _, values = chunk.partition(":")
                ell, _, m = cell.partition("@")
                subs[(int(ell), int(m))] = [int(v) for v in values.split("+")]
        return cls.make(gammas, subs)

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# validation


def _padded(lam: Partition, n: int) -> tuple[int, ...]:
    return lam + (0,) * (n - len(lam))


def _strip_diff(upper: Partition, lower: Partition, n: int) -> tuple[int, ...]:
    up, lo = _padded(upper, n), _padded(lower, n)
    return tuple(u - v for u, v in zip(up, lo))


def _lattice_ok(prev_diff: Sequence[int], cur_diff: Sequence[int]) -> bool:
    suffix_prev = suffix_cur = 0
    for k in range(len(cur_diff) - 1, -1, -1):
        suffix_prev += prev_diff[k]
        suffix_cur += cur_diff[k]
        if suffix_cur > suffix_prev:
            return False
    return True


def validate_lr(gammas: Sequence[Partition]) -> tuple[bool, str | None]:
    """Check the three LR conditions; returns (ok, first violated condition)."""
    try:
        gs = [partition(g) for g in gammas]
    except ValueError as exc:
        return False, f"not a partition chain: {exc}"
    if not gs:
        return False, "empty chain"
    n = max(len(g) for g in gs)
    for ell in range(1, len(gs)):
        if not contains(gs[ell], gs[ell - 1]):
            return False, f"chain not weakly increasing at level {ell}"
        if not is_horizontal_strip(gs[ell], gs[ell - 1]):
            return False, f"strip {ell} is not horizontal"
    for ell in range(2, len(gs)):
        prev = _strip_diff(gs[ell - 1], gs[ell - 2], n)
        cur = _strip_diff(gs[ell], gs[ell - 1], n)
        if not _lattice_ok(prev, cur):
            return False, f"lattice permutation fails at level {ell}"
    return True, None


def tableau_type(tab: LRTableau | KleinTableau) -> tuple[Partition, Partition, Partition]:
    """The triple (alpha, beta, gamma): strip sizes conjugated, top, base."""
    gs = tab.gammas
    sizes = [sum(gs[ell]) - sum(gs[ell - 1]) for ell in range(1, len(gs))]
    alpha = conjugate(partition(sizes))
    return alpha, gs[-1], gs[0]


def strip_row_counts(upper: Partition, lower: Partition) -> dict[int, int]:
    """Boxes per diagram row in the skew upper \\ lower."""
    counts = {}
    for m in range(1, (upper[0] if upper else 0) + 1):
        c = row_length(upper, m) - row_length(lower, m)
        if c:
            counts[m] = c
    return counts


def forced_subscript_count(gammas: Sequence[Partition], ell: int, m: int) -> int:
    """Boxes of entry ell in row m sitting directly below an (ell-1)-box.

    Those boxes must carry subscript m-1.
    """
    top, mid, low = gammas[ell], gammas[ell - 1], gammas[ell - 2]
    n = len(top)
    t, md, lo = _padded(top, n), _padded(mid, n), _padded(low, n)
    return sum(
        1 for i in range(n) if t[i] == m and md[i] == m - 1 and lo[i] < m - 1
    )


def validate_klein(tab: KleinTableau) -> tuple[bool, str | None]:
    """Check conditions (i)-(iv) on top of LR validity."""
    ok, reason = validate_lr(tab.gammas)
    if not ok:
        return False, reason
    gs = tuple(partition(g) for g in tab.gammas)
    e = len(gs) - 1
    declared = {(ell, m): subs for ell, m, subs in tab.subscripts}
    for (ell, m), subs in declared.items():
        if not 2 <= ell <= e:
            return False, f"subscript cell for entry {ell} outside 2..{e}"
        if any(subs[i] > subs[i + 1] for i in range(len(subs) - 1)):
            return False, f"cell ({ell},{m}) subscripts not weakly increasing"
    for ell in range(2, e + 1):
        counts = strip_row_counts(gs[ell], gs[ell - 1])
        caps = strip_row_counts(gs[ell - 1], gs[ell - 2])
        usage: dict[int, int] = {}
        rows = set(counts) | {m for (l2, m) in declared if l2 == ell}
        for m in sorted(rows):
            subs = declared.get((ell, m), ())
            if len(subs) != counts.get(m, 0):
                return False, f"cell ({ell},{m}) has {len(subs)} subscripts, needs {counts.get(m, 0)}"
            if any(not 1 <= r <= m - 1 for r in subs):
                return False, f"cell ({ell},{m}) subscript out of range (ii)"
            need = forced_subscript_count(gs, ell, m)
            if sum(1 for r in subs if r == m - 1) < need:
                return False, f"cell ({ell},{m}) misses forced subscript {m - 1} (iii)"
            for r in subs:
                usage[r] = usage.get(r, 0) + 1
        for r, used in usage.items():
            if used > caps.get(r, 0):
                return False, f"too many symbols {ell}_{r} for row {r} (iv)"
    return True, None


# ---------------------------------------------------------------------------
# enumeration


def _strip_extensions(
    lam: Partition, strip_size: int, bound: Partition, slack: int
) -> Iterator[Partition]:
    """Partitions mu with lam <= mu <= bound, |mu|-|lam| = strip_size, at
    most one new box per column, and bound_i - mu_i <= slack everywhere.

    The slack prunes chains that can no longer climb to ``bound`` with the
    remaining number of strips.
    """
    n = len(bound)
    lamp = _padded(lam, n)
    blocks: list[tuple[int, int, int]] = []  # (start, length, value)
    i = 0
    while i < n:
        j = i
        while j < n and lamp[j] == lamp[i]:
            j += 1
        blocks.append((i, j - i, lamp[i]))
        i = j

    out = list(lamp)

    def rec(b: int, remaining: int) -> Iterator[Partition]:
        if b == len(blocks):
            if remaining == 0:
                yield partition(out)
            return
        start, length, v = blocks[b]
        for c in range(min(length, remaining), -1, -1):
            # incremented columns form a prefix of the block
            if c and v + 1 > bound[start + c - 1]:
                continue
            if c < length and bound[start + c] - v > slack:
                continue
            for i in range(start, start + c):
                out[i] = v + 1
            yield from rec(b + 1, remaining - c)
            for i in range(start, start + c):
                out[i] = v

    yield from rec(0, strip_size)


def enumerate_lr(alpha, beta, gamma) -> tuple[LRTableau, ...]:
    """All LR tableaux of type (alpha, beta, gamma), sorted by their chains."""
    alpha, beta, gamma = partition(alpha), partition(beta), partition(gamma)
    if sum(alpha) + sum(gamma) != sum(beta) or not contains(beta, gamma):
        return ()
    e = alpha[0] if alpha else 0
    if e == 0:
        return (LRTableau((beta,)),) if beta == gamma else ()
    sizes = conjugate(alpha)
    n = len(beta)
    results: list[LRTableau] = []

    def rec(chain: list[Partition], prev_diff: tuple[int, ...] | None):
        ell = len(chain)
        if ell == e + 1:
            results.append(LRTableau(tuple(chain)))
            return
        for mu in _strip_extensions(chain[-1], sizes[ell - 1], beta, e - ell):
            cur_diff = _strip_diff(mu, chain[-1], n)
            if prev_diff is not None and not _lattice_ok(prev_diff, cur_diff):
                continue
            chain.append(mu)
            rec(chain, cur_diff)
            chain.pop()

    rec([gamma], None)
    results.sort(key=lambda t: t.gammas)
    return tuple(results)


def _cell_multisets(
    free: int, max_sub: int, caps: Mapping[int, int]
) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples of length ``free`` over 1..max_sub whose
    per-value counts stay within caps."""

    def rec(k: int, lowest: int, acc: tuple[int, ...], used: dict[int, int]):
        if k == 0:
            yield acc
            return
        for r in range(lowest, max_sub + 1):
            if used.get(r, 0) + 1 > caps.get(r, 0):
                continue
            used[r] = used.get(r, 0) + 1
            yield from rec(k - 1, r, acc + (r,), used)
            used[r] -= 1

    yield from rec(free, 1, (), {})


def enumerate_klein_refinements(lr: LRTableau) -> tuple[KleinTableau, ...]:
    """All Klein tableaux refining a valid LR tableau, in canonical order.

    Choices for distinct entries are independent, so the result is a
    cartesian product of per-entry subscript assignments.
    """
    gs = lr.gammas
    e = len(gs) - 1
    per_level: list[list[dict[Cell, tuple[int, ...]]]] = []
    for ell in range(2, e + 1):
        counts = strip_row_counts(gs[ell], gs[ell - 1])
        caps = strip_row_counts(gs[ell - 1], gs[ell - 2])
        cells = []
        floor: dict[int, int] = {}
        for m in sorted(counts):
            need = forced_subscript_count(gs, ell, m)
            cells.append((m, counts[m], need))
            if need:
                floor[m - 1] = floor.get(m - 1, 0) + need
        if any(floor[r] > caps.get(r, 0) for r in floor):
            return ()
        level: list[dict[Cell, tuple[int, ...]]] = []

        def rec(idx: int, acc: dict[Cell, tuple[int, ...]], used: dict[int, int]):
            if idx == len(cells):
                level.append(dict(acc))
                return
            m, cnt, need = cells[idx]
            remaining_caps = {
                r: caps.get(r, 0) - used.get(r, 0) for r in caps
            }
            for choice in _cell_multisets(cnt - need, m - 1, remaining_caps):
                full = tuple(sorted(choice + (m - 1,) * need))
                new_used = dict(used)
                for r in full:
                    new_used[r] = new_used.get(r, 0) + 1
                if any(new_used[r] > caps.get(r, 0) for r in new_used):
                    continue
                acc[(ell, m)] = full
                rec(idx + 1, acc, new_used)
                del acc[(ell, m)]

        rec(0, {}, {})
        if not level:
            return ()
        per_level.append(level)

    results = []
    for combo in product(*per_level):
        subs: dict[Cell, tuple[int, ...]] = {}
        for assignment in combo:
            subs.update(assignment)
        results.append(KleinTableau.make(gs, subs))
    results.sort(key=lambda t: (t.gammas, t.subscripts))
    return tuple(results)


def enumerate_klein(alpha, beta, gamma) -> tuple[KleinTableau, ...]:
    """All Klein tableaux of type (alpha, beta, gamma), canonical order."""
    out: list[KleinTableau] = []
    for lr in enumerate_lr(alpha, beta, gamma):
        out.extend(enumerate_klein_refinements(lr))
    out.sort(key=lambda t: (t.gammas, t.subscripts))
    return tuple(out)


def co_strips(mu: Partition) -> Iterator[Partition]:
    """All partitions lam <= mu with mu \\ lam a horizontal strip."""
    blocks: list[tuple[int, int]] = []  # (length, value)
    i = 0
    while i < len(mu):
        j = i
        while j < len(mu) and mu[j] == mu[i]:
            j += 1
        blocks.append((j - i, mu[i]))
        i = j

    def rec(b: int, acc: list[int]) -> Iterator[Partition]:
        if b == len(blocks):
            yield partition(acc)
            return
        length, v = blocks[b]
        for c in range(length + 1):
            # decremented columns form a suffix of the block
            yield from rec(b + 1, acc + [v] * (length - c) + [v - 1] * c)

    yield from rec(0, [])


def enumerate_klein_entries2(beta) -> tuple[KleinTableau, ...]:
    """All Klein tableaux with the given top partition and entries <= 2.

    These are canonical chains: the top strip is nonempty unless e = 0.
    """
    beta = partition(beta)
    out: list[KleinTableau] = [KleinTableau.make([beta])]
    for g1 in co_strips(beta):
        if g1 == beta:
            continue
        out.append(KleinTableau.make([g1, beta]))
        n = len(beta)
        top_diff = _strip_diff(beta, g1, n)
        for g0 in co_strips(g1):
            if g0 == g1:
                continue
            if not _lattice_ok(_strip_diff(g1, g0, n), top_diff):
                continue
            out.extend(enumerate_klein_refinements(LRTableau((g0, g1, beta))))
    out.sort(key=lambda t: (len(t.gammas), t.gammas, t.subscripts))
    return tuple(out)


# ---------------------------------------------------------------------------
# restriction and direct sums


def restrict(tab: KleinTableau, ell: int, u: int) -> KleinTableau:
    """The sub-tableau between levels ell-u and ell, entries shifted down.

    ``ell = e+1`` is allowed after padding the chain with g^{e+1} = g^e
    and no new subscripts; new entries 1 lose their subscript, larger
    entries keep theirs.
    """
    e = tab.e
    if not 0 <= u <= ell <= e + 1:
        raise RangeError(f"need 0 <= u <= ell <= e+1, got u={u}, ell={ell}, e={e}")
    shift = ell - u
    gammas = tuple(tab.gammas[min(idx, e)] for idx in range(shift, ell + 1))
    subs = {
        (entry - shift, m): ss
        for entry, m, ss in tab.subscripts
        if entry - shift >= 2 and entry <= ell
    }
    return KleinTableau.make(gammas, subs)


def direct_sum_tableau(a: KleinTableau, b: KleinTableau) -> KleinTableau:
    """Tableau of a direct sum: merge chains levelwise and, per row, merge
    the symbol multisets of the summands."""
    e = max(a.e, b.e)
    gammas = tuple(
        merge(a.gammas[min(ell, a.e)], b.gammas[min(ell, b.e)])
        for ell in range(e + 1)
    )
    subs: dict[Cell, tuple[int, ...]] = {}
    for tab in (a, b):
        for entry, m, ss in tab.subscripts:
            subs[(entry, m)] = tuple(sorted(subs.get((entry, m), ()) + ss))
    return KleinTableau.make(gammas, subs)


# ---------------------------------------------------------------------------
# rendering


def ascii_diagram(tab: KleinTableau) -> str:
    """Aligned ASCII rendering; columns are parts, '.' marks empty boxes."""
    beta = tab.beta
    if not beta:
        return "(empty)"
    gs = tab.gammas
    ncols = len(beta)
    entries: dict[tuple[int, int], str] = {}
    for i in range(ncols):
        for m in range(1, beta[i] + 1):
            level = next(ell for ell in range(len(gs)) if _padded(gs[ell], ncols)[i] >= m)
            entries[(i, m)] = "." if level == 0 else str(level)
    # distribute each cell's sorted subscripts to its columns left to right
    for entry, m, ss in tab.subscripts:
        cols = [
            i
            for i in range(ncols)
            if entries.get((i, m)) == str(entry)
        ]
        for i, r in zip(cols, ss):
            entries[(i, m)] = f"{entry}_{r}"
    width = max(len(v) for v in entries.values()) + 1
    lines = []
    for m in range(1, beta[0] + 1):
        row = [entries.get((i, m), "").ljust(width) for i in range(ncols)]
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)
