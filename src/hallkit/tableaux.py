"""LR and Klein tableaux: validation, enumeration, restriction, direct sums.

An LR tableau is a weakly increasing chain of partitions
``[g0, ..., ge]`` whose consecutive skews are horizontal strips and which
satisfies the lattice permutation property.  A Klein tableau is an LR
tableau plus subscripts (``KleinTableau`` adds only them): every box with
entry ``ell >= 2`` carries a subscript ``r``, stored per entry level as
(row, multiset) cells, which the in-row order makes lossless.  That level
tuple is what enumeration yields, restriction slices and the Hall
memos key on; ``cells()`` is the one flat (entry, row, subs) view.

A tableau is checked once, where it is built: the constructors, and so
``make``, ``from_text`` and ``from_json``, refuse what ``validate_lr`` or
``validate_klein`` refuses, so no consumer checks a tableau again.  Code
that builds only valid tableaux (the enumerators, restriction, direct
sums, the bijection, the embeddings' fold and the census) goes through
the one unchecked builder, ``_unchecked``, off the validators.

Every enumeration reads its chains (``_chains``) from a table of climb
states under beta (``_climb``), climbed one horizontal strip at a time,
column by column from the last, by the one strip walker ``_strips_up``,
which cuts a branch that can no longer reach beta and yields each strip
with its suffix counts (``_suffix_counts``, as ``validate_lr`` compares).
The LR walk is Markov, so a state (alpha with its climbed columns
removed, g) is walked once per table and keeps a child's group of chains
only when that group's first strip has suffix counts at most its own
(the lattice test, once per group).  Groups, tabled by strip,
descending, and read last-in-first-out, leave the table in chain order.

A chain (low, mid, top) is read in one pass over its columns,
``chain_columns``, shared by every reader of a chain: the subscript
enumerator ``_level_subscripts``, the Hall memo ``hall._level_terms``,
``validate_klein`` and the embeddings' subscript chain.  Rows are counted
in plain dicts filled per box, so a strip high up a tall diagram costs
its columns and boxes, not its height.  A direct sum of any number of
tableaux merges all chains and symbols in one step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product, zip_longest
from operator import le
from typing import Iterable, Iterator, Mapping, Sequence

from .caps import general_cap
from .errors import CapExceeded, NoRefinement, RangeError
from .partitions import (
    Partition,
    conjugate,
    contains,
    fmt,
    is_horizontal_strip,
    json_record,
    json_typed,
    merge,
    parse,
    partition,
    read_int,
)

Cell = tuple[int, int]  # (entry, row)


@dataclass(frozen=True, slots=True)
class LRTableau:
    """Chain of partitions [g0, ..., ge]; entry ell fills g_ell \\ g_{ell-1}.
    The constructor refuses any other chain (``_refuse``)."""

    gammas: tuple[Partition, ...]

    def __post_init__(self):
        _refuse(self.gammas, validate_lr(self.gammas)[1], NoRefinement, "an LR")

    @property
    def e(self) -> int:
        return len(self.gammas) - 1

    @property
    def beta(self) -> Partition:
        return self.gammas[-1]

    @property
    def base(self) -> Partition:
        return self.gammas[0]

    def to_json(self) -> dict:
        return {"gammas": [list(g) for g in self.gammas]}

    def to_text(self) -> str:
        """The gammas joined by '/', '-' for an empty one."""
        return "/".join(fmt(g) or "-" for g in self.gammas)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True, slots=True)
class KleinTableau(LRTableau):
    """An LR tableau plus its subscripts, one level per entry.

    ``levels[ell-2]`` holds the cells ((row, subs), ...) of entry ell,
    for ell = 2..e, sorted by row, with subs a weakly increasing tuple;
    empty cells are omitted, and an empty strip's level is ().  The
    constructor, and so ``make`` and both readers, refuses any other data
    (``_refuse``).
    """

    levels: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = ()

    def __post_init__(self):
        _refuse(self.gammas, validate_klein(self)[1], ValueError, "a Klein")

    @classmethod
    def make(
        cls,
        gammas: Sequence[Sequence[int]],
        subscripts: Mapping[Cell, Iterable[int]] | None = None,
    ) -> "KleinTableau":
        """The tableau of any part sequences and (entry, row) cells: the
        cells grouped into levels (``_levels``), then the constructor's check."""
        gs = tuple(partition(g) for g in gammas)
        return cls(gs, _levels(gs, subscripts or {}))

    def cells(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """The flat view: (entry, row, subs) per cell, by entry and row."""
        for ell, level in enumerate(self.levels, 2):
            for m, subs in level:
                yield ell, m, subs

    def count_symbols(self, entry, rows=None, subs=None) -> int:
        """Number of symbols with the given entry, row in rows, subscript in subs."""
        total = 0
        for ell, m, ss in self.cells():
            if ell != entry:
                continue
            if rows is not None and m not in rows:
                continue
            total += len(ss) if subs is None else sum(1 for r in ss if r in subs)
        return total

    # slots=True builds a new class, which zero-argument super() does not
    # see, so both renderings call LRTableau's by name
    def to_json(self) -> dict:
        data = LRTableau.to_json(self)
        data["subscripts"] = [
            {"entry": ell, "row": m, "subs": list(ss)} for ell, m, ss in self.cells()
        ]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "KleinTableau":
        """Inverse of ``to_json``; ValueError on any malformed field."""
        with json_record("tableau"):
            gammas = [json_typed(g, list, int) for g in json_typed(data["gammas"], list)]
            cells = (
                ((json_typed(item["entry"], int), json_typed(item["row"], int)),
                 json_typed(item["subs"], list, int))
                for item in json_typed(data.get("subscripts", []), list)
            )
            return _read(cls, gammas, cells)

    def to_text(self) -> str:
        """The LR chain's text, then ';entry@row:r1+r2,...'."""
        glist = LRTableau.to_text(self)
        cells = ",".join(
            f"{ell}@{m}:" + "+".join(str(r) for r in ss) for ell, m, ss in self.cells()
        )
        return f"{glist};{cells}" if cells else glist

    @classmethod
    def from_text(cls, text: str) -> "KleinTableau":
        text = text.strip(" ")
        gpart, _, spart = text.partition(";")
        gammas = [parse("" if tok.strip(" ") == "-" else tok) for tok in gpart.split("/")]
        cells = []
        for chunk in spart.split(",") if spart else ():
            cell, _, values = chunk.partition(":")
            ell, _, m = cell.partition("@")
            cells.append(((read_int(ell), read_int(m)), list(map(read_int, values.split("+")))))
        return _read(cls, gammas, cells)


def _refuse(gammas, reason: str | None, error: type[Exception], what: str) -> None:
    """The constructors' check: an empty chain as such, then ``error("not
    <what> tableau: <reason>")`` on the validator's reason, or on gammas
    that are not ``partition``'s canonical tuples, the chains' memo keys."""
    if not gammas:
        raise ValueError("an LR tableau needs at least one partition")
    if reason is None and gammas != tuple(map(partition, gammas)):
        reason = "gammas are not a tuple of canonical partitions"
    if reason is not None:
        raise error(f"not {what} tableau: {reason}")


def _unchecked(gammas: tuple[Partition, ...], levels=None) -> LRTableau:
    """An LRTableau, or with levels a KleinTableau, built with no check:
    the one path around ``_refuse``, for code that builds only valid
    tableaux, so that validation stays off its hot paths."""
    tab = object.__new__(LRTableau if levels is None else KleinTableau)
    object.__setattr__(tab, "gammas", gammas)
    if levels is not None:
        object.__setattr__(tab, "levels", levels)
    return tab


def _levels(gs: tuple[Partition, ...], subscripts: Mapping[Cell, Iterable[int]]) -> tuple:
    """(entry, row) cells as one sorted level per entry 2..e, empty cells
    dropped; ValueError on an entry outside 2..e, except on the empty
    chain, which the constructor refuses as such."""
    if not gs:
        return ()
    e = len(gs) - 1
    levels: list[list] = [[] for _ in range(e - 1)]
    for (entry, row), subs in subscripts.items():
        subs = tuple(sorted(int(r) for r in subs))
        if not subs:
            continue
        entry = int(entry)
        if not 2 <= entry <= e:
            raise ValueError(f"subscript cell for entry {entry} outside 2..{e}")
        levels[entry - 2].append((int(row), subs))
    return tuple(tuple(sorted(level)) for level in levels)


def check_diagram_size(boxes: int) -> None:
    """CapExceeded when a diagram of this many boxes is over the general cap."""
    cap = general_cap()
    if boxes > cap:
        raise CapExceeded(f"diagram of {boxes} boxes exceeds cap {cap}")


def _read(cls, gammas, items: Iterable[tuple[Cell, list[int]]]) -> KleinTableau:
    """The readers' tableau, refused in this order: a repeated cell, a part
    or a cell's entry range, CapExceeded when the top partition has more
    boxes than the general cap, an empty top strip (the tableau of no
    embedding, decoding as the chain below it), then ``_refuse``."""
    cells: dict[Cell, list[int]] = {}
    for (ell, m), subs in items:
        if (ell, m) in cells:
            raise ValueError(f"cell ({ell},{m}) is given twice")
        cells[ell, m] = subs
    gs = tuple(partition(g) for g in gammas)
    levels = _levels(gs, cells)
    if gs:
        check_diagram_size(sum(gs[-1]))
        if len(gs) > 1 and gs[-1] == gs[-2]:
            raise ValueError(f"empty top strip: entry {len(gs) - 1} has no box")
    return cls(gs, levels)


# ---------------------------------------------------------------------------
# validation


def _padded(lam: Partition, n: int) -> tuple[int, ...]:
    return lam + (0,) * (n - len(lam))


def _suffix_counts(upper: Partition, lower: Partition) -> tuple[int, ...]:
    """suffix[i] = the boxes of the strip upper \\ lower in columns >= i,
    for i = 0..len(upper); the last one is 0."""
    diffs = [u - v for u, v in zip(upper, _padded(lower, len(upper)))]
    return tuple(accumulate(reversed(diffs), initial=0))[::-1]


def validate_lr(gammas: Sequence[Partition]) -> tuple[bool, str | None]:
    """Check the three LR conditions; returns (ok, first violated condition)."""
    try:
        gs = [partition(g) for g in gammas]
    except ValueError as exc:
        return False, f"not a partition chain: {exc}"
    if not gs:
        return False, "empty chain"
    for ell in range(1, len(gs)):
        if not contains(gs[ell], gs[ell - 1]):
            return False, f"chain not weakly increasing at level {ell}"
        if not is_horizontal_strip(gs[ell], gs[ell - 1]):
            return False, f"strip {ell} is not horizontal"
    # lattice: for every i, strip ell has at most as many boxes in the
    # columns >= i as strip ell-1
    suffixes = [_suffix_counts(gs[ell], gs[ell - 1]) for ell in range(1, len(gs))]
    for ell in range(2, len(gs)):
        pairs = zip_longest(suffixes[ell - 1], suffixes[ell - 2], fillvalue=0)
        if any(cur > prev for cur, prev in pairs):
            return False, f"lattice permutation fails at level {ell}"
    return True, None


def tableau_type(tab: LRTableau) -> tuple[Partition, Partition, Partition]:
    """The triple (alpha, beta, gamma): strip sizes conjugated, top, base."""
    gs = tab.gammas
    sizes = [sum(gs[ell]) - sum(gs[ell - 1]) for ell in range(1, len(gs))]
    alpha = conjugate(partition(sizes))
    return alpha, gs[-1], gs[0]


def chain_columns(
    low: Partition, mid: Partition, top: Partition
) -> tuple[dict[int, int], dict[int, int], dict[int, int], dict[int, int]]:
    """One pass over the columns of the chain low <= mid <= top, counted
    in plain dicts filled per box or per column, with no key for a row
    or height that has none:

    - rows: per row m, the boxes of the strip top \\ mid;
    - caps: per row r, the boxes of the strip mid \\ low, the caps of
      (iv) and the 1-boxes of the chain's objects;
    - forced: per row m, the boxes of top \\ mid in row m sitting
      directly on a box of mid \\ low, each carrying the subscript m-1
      (iii);
    - empty: per height m, the columns with top_i = low_i = m.
    """
    n = len(top)
    rows: dict[int, int] = {}
    caps: dict[int, int] = {}
    forced: dict[int, int] = {}
    empty: dict[int, int] = {}
    for t, md, lo in zip(top, _padded(mid, n), _padded(low, n)):
        if t == lo:
            empty[t] = empty.get(t, 0) + 1
        if md < t:
            for m in range(md + 1, t + 1):
                rows[m] = rows.get(m, 0) + 1
            if md == t - 1 and lo < md:
                forced[t] = forced.get(t, 0) + 1
        if lo < md:
            for r in range(lo + 1, md + 1):
                caps[r] = caps.get(r, 0) + 1
    return rows, caps, forced, empty


def validate_klein(tab: KleinTableau) -> tuple[bool, str | None]:
    """Check conditions (i)-(iv) on top of LR validity, and the form of
    the levels that ``KleinTableau`` documents, which ``make`` gives and
    a tableau built unchecked may lack."""
    ok, reason = validate_lr(tab.gammas)
    if not ok:
        return False, reason
    gs = tuple(partition(g) for g in tab.gammas)
    e = len(gs) - 1
    if len(tab.levels) != max(e - 1, 0):
        return False, f"{len(tab.levels)} subscript levels for entries 2..{e}"
    for ell, level in enumerate(tab.levels, 2):
        rows = [m for m, subs in level if subs]
        if len(rows) < len(level) or any(a >= b for a, b in zip(rows, rows[1:])):
            return False, f"level {ell} is not one nonempty cell per row, rows increasing"
        for m, subs in level:
            if any(a > b for a, b in zip(subs, subs[1:])):
                return False, f"cell ({ell},{m}) subscripts not weakly increasing"
    for ell, level in enumerate(tab.levels, 2):
        counts, caps, forced, _ = chain_columns(*gs[ell - 2 : ell + 1])
        declared = dict(level)
        usage: Counter[int] = Counter()
        for m in sorted(set(counts) | set(declared)):
            subs = declared.get(m, ())
            need = counts.get(m, 0)
            if len(subs) != need:
                return False, f"cell ({ell},{m}) has {len(subs)} subscripts, needs {need}"
            if any(not 1 <= r <= m - 1 for r in subs):
                return False, f"cell ({ell},{m}) subscript out of range (ii)"
            if subs.count(m - 1) < forced.get(m, 0):
                return False, f"cell ({ell},{m}) misses forced subscript {m - 1} (iii)"
            usage.update(subs)
        for r, used in usage.items():
            if used > caps.get(r, 0):
                return False, f"too many symbols {ell}_{r} for row {r} (iv)"
    return True, None


# ---------------------------------------------------------------------------
# enumeration


def _strips_up(
    lam: Partition, top: Partition, size: int, above: int
) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """Each (mu, suffix) such that mu \\ lam is a horizontal strip of
    size boxes inside top that the ``above`` strips still to come can
    fill up to top.  ``suffix`` is the strip's own, ``_suffix_counts(mu,
    lam)`` padded to len(top) + 1 entries, which the strip above is
    bounded by (the lattice test, made by the caller).

    The fixed columns are a linked node (mu_i, s_i, node of column i+1)
    on a (0, 0, None) sentinel, filled from the last column of top.  A
    frame holds the node of its columns >= i, the boxes left to add and
    room, the boxes still missing from top there.  A frame is pushed
    only when the boxes left fit the i columns left and room <= above *
    s_i (each strip above has at most s_i boxes there), so none is cut
    after its push.  A column is kept only when top_i - lam_i <= above
    and it does not fall below its right neighbour's new height, and it
    gains a box only when 0 <= top_i - lam_i - 1 <= above: each strip
    above adds at most one box to it.
    """
    if size > len(top):
        return
    low = _padded(lam, len(top))
    stack = [(len(top), size, 0, (0, 0, None))]
    while stack:
        i, remaining, room, fixed = stack.pop()
        if not i:
            yield _flatten(fixed)
            continue
        s = fixed[1]
        i -= 1
        v, gap = low[i], top[i] - low[i]
        room += gap
        if remaining <= i and gap <= above and v >= fixed[0] and room <= above * s:
            stack.append((i, remaining, room, (v, s, fixed)))
        if remaining and 0 < gap <= above + 1 and remaining - 1 <= i and room - 1 <= above * (s + 1):
            stack.append((i, remaining - 1, room - 1, (v + 1, s + 1, fixed)))


def _flatten(fixed) -> tuple[Partition, tuple[int, ...]]:
    """The partition and suffix counts of a strip walker's leaf node, in
    one loop; its zeros, the sentinel's too, trail the partition."""
    parts, suffix = [], []
    while fixed:
        v, t, fixed = fixed
        if v:
            parts.append(v)
        suffix.append(t)
    return tuple(parts), tuple(suffix)


# the entry of the state ((), beta): one group with no strip, the end of
# a chain; its empty suffix passes every lattice test
_END = (((), None, None),)


@lru_cache(maxsize=1)
def _climbs(beta: Partition) -> dict:
    """The table of climb states under beta, filled by ``_climb``, kept
    only for the beta being read: every reader reads one beta at a time."""
    return {((), beta): _END}


def _climb(table: dict, beta: Partition, state: tuple[Partition, Partition]) -> None:
    """Put into the table the entry of the state (rest, g) under beta and
    of every state it climbs through.

    rest is alpha with the columns already climbed removed, so the strip
    from g has len(rest) boxes and rest[0] - 1 strips follow it, and the
    child state of a strip g' is (rest with its first column removed,
    g').  An entry is a group (suffix, child state, kept) per first strip
    g' that some chain to beta goes through, sorted here by g',
    descending, for ``_chains``'s last-in-first-out read; suffix is the
    strip's suffix counts and kept is the positions of the child's groups
    that the lattice test lets follow it, those whose suffix is at most
    this one's column by column, or None for all of them.  Groups hold
    states and positions, not other groups, so no entry nests another,
    and a state is walked once per table, whatever type climbs through it.

    The states not yet in the table are walked on explicit lists, one
    layer at a time (the states of a layer share their rest), with no
    recursion, and then finished from the last layer back, so every
    child is finished before its parents.  Each walked state is dropped
    as it is finished, so the garbage collector's work stays linear in
    the states of a deep chain.
    """
    walked = []
    layer = [state]
    while layer:
        rest = layer[0][0]
        above = tuple([a - 1 for a in rest if a > 1])
        children = {}
        for state in layer:
            strips = sorted(_strips_up(state[1], beta, len(rest), rest[0] - 1), reverse=True)
            strips = tuple([(s, (above, mu)) for mu, s in strips])
            walked.append((state, strips))
            for _, child in strips:
                if child not in table:
                    children[child] = None
        layer = list(children)
    while walked:
        state, strips = walked.pop()
        groups = []
        for s, child in strips:
            entry = table[child]
            kept = [i for i, grp in enumerate(entry) if all(map(le, grp[0], s))]
            if kept:
                groups.append((s, child, None if len(kept) == len(entry) else tuple(kept)))
        table[state] = tuple(groups)


def enumerate_lr(alpha, beta, gamma) -> tuple[LRTableau, ...]:
    """All LR tableaux of type (alpha, beta, gamma), in chain order, as
    ``_chains`` reads them from the table.  CapExceeded, before any other
    work, when beta has more boxes than the general cap."""
    beta = partition(beta)
    check_diagram_size(sum(beta))
    return tuple([_unchecked(gs) for gs in _chains(beta, partition(alpha), partition(gamma))])


def _chains(beta: Partition, alpha: Partition, gamma: Partition) -> list:
    """The sorted chains of the LR tableaux of type (alpha, beta, gamma),
    read from beta's table of climb states (``_climbs``), shared by its types.

    A type with |alpha| + |gamma| != |beta|, or with alpha or gamma
    outside beta, has none, and no table is read.  Otherwise the chains
    start at the state (alpha, gamma), climbed first if the table lacks
    it: strips ell = 1, ..., e of conjugate(alpha)[ell-1] boxes each are
    added to gamma, up under beta, each strip kept only under the one
    below it (lattice), and the last strip ends at beta.  The groups, by
    strip descending (``_climb``), are read last-in-first-out on an
    explicit stack into one path list, g_0, ..., g_ell, so the chains come
    out sorted; each is copied from it once, at its end, in O(e).
    """
    if sum(alpha) + sum(gamma) != sum(beta) or not (
        contains(beta, alpha) and contains(beta, gamma)
    ):
        return []
    table, start = _climbs(beta), (alpha, gamma)
    if start not in table:
        _climb(table, beta, start)
    chains, path = [], []
    stack = [(0, gamma, table[start], None)]
    while stack:
        ell, g, groups, kept = stack.pop()
        del path[ell:]
        path.append(g)
        for _, child, below in groups if kept is None else map(groups.__getitem__, kept):
            if child is None:
                chains.append(tuple(path))
            else:
                stack.append((ell + 1, child[1], table[child], below))
    return chains


def _level_subscripts(columns) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Every level ((row, subs), ...) that the top entry of a chain
    (low, mid, top) can carry, in canonical order, read from the chain's
    ``chain_columns`` pass: the rows of the strip top \\ mid, the caps of
    (iv) and the forced subscripts.

    Each row m, lowest first, draws its free subscripts (ii) by
    ``combinations_with_replacement`` over the rows r < m that hold a cap
    (only those rows are read, so a tall strip costs no scan of the rows
    below it), in lexicographic order, and appends its forced m-1's
    (iii).  Each choice so far carries the symbols it uses, and a row's
    subscripts extend it only when none of theirs is then used more often
    than its cap, so (iv) is tested once per choice and row, and the
    choices come in the order of the product over the rows.
    """
    rows, caps, forced, _ = columns
    symbols = sorted(caps)
    levels = [((), ())]  # (level, the symbols it uses)
    for m in sorted(rows):
        need = forced.get(m, 0)
        free = combinations_with_replacement([r for r in symbols if r < m], rows[m] - need)
        draws = [subs + (m - 1,) * need for subs in free]
        grown = []
        for level, used in levels:
            for subs in draws:
                both = used + subs
                for r in set(subs):
                    if both.count(r) > caps[r]:
                        break
                else:
                    grown.append((level + ((m, subs),), both))
        levels = grown
    return tuple([level for level, _ in levels])


def enumerate_klein_refinements(lr: LRTableau) -> tuple[KleinTableau, ...]:
    """All Klein tableaux refining a valid LR tableau, in canonical order.

    Choices for distinct entries are independent, so the result is a
    cartesian product of per-entry subscript assignments; each level
    comes in canonical order, so the product does too.  Each level's
    choices are read from one ``chain_columns`` pass over its chain
    (g_{ell-2}, g_{ell-1}, g_ell).
    """
    gs = lr.gammas
    levels = (_level_subscripts(chain_columns(*chain)) for chain in zip(gs, gs[1:], gs[2:]))
    return tuple(_unchecked(gs, combo) for combo in product(*levels))


def enumerate_klein(alpha, beta, gamma) -> tuple[KleinTableau, ...]:
    """All Klein tableaux of type (alpha, beta, gamma), canonical order."""
    return tuple(
        tab
        for lr in enumerate_lr(alpha, beta, gamma)
        for tab in enumerate_klein_refinements(lr)
    )


def enumerate_klein_entries2(beta) -> tuple[KleinTableau, ...]:
    """All Klein tableaux with the given top partition and entries <= 2,
    sorted by e, chain and levels: those of the types (alpha, beta, gamma)
    whose alpha has parts <= 2.  Each bottom gamma, listed column by column
    at most two boxes below beta, d boxes short of it, has its chains read
    by ``_chains`` from beta's table for alpha = (2^t, 1^(d-2t)), t <= d//2;
    the chains, sorted by e and chain, are refined in turn, levels in order.
    The diagram cap, which ``enumerate_lr`` checks, does not apply: the
    orbit identity reads every beta up to |beta| 12 under any cap and never
    skips.  Memoised per beta: a default ``verify`` makes 272 misses and 139
    hits, each the hall suite re-reading a beta with |beta| <= 10 (0.06 s
    to rebuild); unmemoised, each warm ``suite_hall`` would rebuild every
    beta with |beta| <= 12 (0.2 s).
    """
    return _entries2(partition(beta))


@lru_cache(maxsize=1 << 9)
def _entries2(beta: Partition) -> tuple[KleinTableau, ...]:
    # the bottoms, behind a sentinel column beta_1 high
    bottoms = [beta[:1]]
    for b in beta:
        bottoms = [g + (c,) for g in bottoms for c in range(max(b - 2, 0), min(b, g[-1]) + 1)]
    chains = []
    for g in bottoms:
        gamma = partition(g[1:])
        d = sum(beta) - sum(gamma)
        # a column two boxes short of beta gets a box in each strip, so t >= their count
        for t in range(sum(b - c == 2 for b, c in zip(beta, g[1:])), d // 2 + 1):
            chains += _chains(beta, (2,) * t + (1,) * (d - 2 * t), gamma)
    chains.sort(key=lambda gs: (len(gs), gs))
    return tuple([tab for gs in chains for tab in enumerate_klein_refinements(_unchecked(gs))])


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
    gammas = tab.gammas[shift : ell + 1]
    if ell > e:
        gammas += (tab.gammas[e],)
    # the new entries 2..u are the old shift+2..ell, padded at ell = e+1;
    # u <= 1 keeps none
    return _unchecked(gammas, (tab.levels + ((),))[shift : max(ell - 1, shift)])


def direct_sum_tableau(*tabs: KleinTableau) -> KleinTableau:
    """Tableau of a direct sum of any number of summands: merge the chains
    levelwise and, per (entry, row) cell, the symbol multisets, then
    group them into levels once.  The empty sum is the tableau of the
    zero object.  The sum of Klein tableaux, which the summands are by
    construction, is one, so it is built unchecked."""
    e = max((tab.e for tab in tabs), default=0)
    gammas = tuple(merge(*(tab.gammas[min(ell, tab.e)] for tab in tabs)) for ell in range(e + 1))
    cells: dict[Cell, list[int]] = {}
    for tab in tabs:
        for entry, m, ss in tab.cells():
            cells.setdefault((entry, m), []).extend(ss)
    return _unchecked(gammas, _levels(gammas, cells))


# ---------------------------------------------------------------------------
# rendering


def ascii_diagram(tab: LRTableau) -> str:
    """Aligned ASCII rendering; columns are parts, '.' marks empty boxes,
    and a Klein tableau's boxes carry their subscripts.

    Linear in the boxes: each partition is padded once and each column is
    walked upward once, level ell filling its rows g_{ell-1}+1..g_ell.
    Raises CapExceeded, before any row is built, when the boxes are more
    than the general cap.
    """
    beta = tab.beta
    if not beta:
        return "(empty)"
    check_diagram_size(sum(beta))
    ncols = len(beta)
    padded = [_padded(g, ncols) for g in tab.gammas]
    columns: list[list[str]] = []
    # per (entry, row), entry >= 1, the columns whose box there has that
    # entry, left to right
    spots: dict[Cell, list[int]] = {}
    for i in range(ncols):
        col: list[str] = []
        for ell, g in enumerate(padded):
            if ell:
                for m in range(len(col) + 1, g[i] + 1):
                    spots.setdefault((ell, m), []).append(i)
            col += [str(ell) if ell else "."] * (g[i] - len(col))
        columns.append(col)
    # distribute each cell's sorted subscripts to its columns left to right
    for entry, m, ss in tab.cells() if isinstance(tab, KleinTableau) else ():
        for i, r in zip(spots.get((entry, m), ()), ss):
            columns[i][m - 1] = f"{entry}_{r}"
    width = max(len(v) for col in columns for v in col) + 1
    lines = []
    # the columns are weakly decreasing in height, so those reaching row m
    # are the first `reach` of them
    reach = ncols
    for m in range(1, beta[0] + 1):
        while beta[reach - 1] < m:
            reach -= 1
        lines.append(" ".join(columns[i][m - 1].ljust(width) for i in range(reach)).rstrip())
    return "\n".join(lines)
