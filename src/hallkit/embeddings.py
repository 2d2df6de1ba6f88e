"""Concrete embeddings (A <= B) over a prime p.

The ambient module B = (+) Z/p^{beta_i} packs an element, at every
prime, into one integer with a field of w + 1 bits per coordinate, 2^w
>= every modulus m_i; packed order is the lexicographic order of the
reversed coordinates.  The top bit of a field is a guard: adding a bias
carries exactly the fields of a sum with u_i >= m_i into their guards,
and those fields get m_i subtracted, with no per-coordinate loop.  All
subgroup-lattice operations (intersection, preimage, sums) work on
exact element sets, which is simple and fast enough under the caps.
``AmbientModule.get`` interns the ambients of up to 2^9 (p, beta) in a
module-level ``lru_cache``, and each memoises x -> px: ``pmul``
multiplies an element once, and ``scale`` (every p-chain link, every
``klein_tableau`` level), the greedy basis's candidate test and the
oracle's subgroup walk read the memo after that; it holds only elements
they multiplied.  The canonical submodules p^r B are never mapped: ``scale`` of p^r B is the
cached set p^{r+1} B (``p_power_set``), found from |A| through a table
of the orders |p^r B|, and ``preimage`` of a subgroup holding pB is B.
Division by p is defined on pB only, where each field is p times that
of the root with no carry, so ``divp`` is one integer division.

Each construction exists once.  ``direct_sum`` packs any number of
summands into one ambient, so an object's embedding is one sum.  One
loop, ``Embedding.chain``, extends the p-chain A, pA, ..., 0 of a
subgroup.  Types are read off the orders of the layers p^i M
(``_layer_type``), from the p-chain or from |p^i B| / |p^i B & X| for a
quotient B/X.  Every type reading
(``module_type``, ``Embedding.subgroup_type``, ``quotient_type``) goes
through one bounded ``lru_cache`` keyed on the tuple of layer orders and
p: the census of every beta with |beta| <= 7 at p = 2 reads 1,224
types but only 44 distinct order vectors, so almost every reading is a
lookup, and a miss still validates its partition.  The cached types are
canonical tuples, so ``_on_top`` builds each tableau from them and
from the levels of subscript runs it appends in increasing r, unchecked
(``tableaux._unchecked``): the tableau of an embedding is a Klein
tableau, and the constructors' check is for outside input.
p^{-1}A is the union of the socle cosets a/p + B[p] over a in A & pB,
with no scan of B.  It depends on A only through that radical, so
``preimage`` reads it from ``_preimage``, one process-wide
least-recently-used memo of four entries keyed on (ambient, radical):
the lifts of one embedding come in a burst (of E, reduce(E) and
reduce(lift(E)), then of a partner lifted s <= 2 times) of at most four
radicals, and a repeat in the burst is a lookup.  Neither B nor any
preimage is kept per ambient.  Subgroups grow by one rule, ``span``
from a base, here and in the oracle's walk, each coset H + g as one
``map(add, H, repeat(g))``, and bases come from one greedy rule
(``_greedy_basis``), for a subgroup's generators and for the quotient
B/p^ell A of a truncation, which keeps only the spans below each basis
vector and packs each generator of A from the coordinates peeled off
them (``_peel``), so no coordinate table of B is built.  At ell = 0 the
quotient is B/A and every generator of A maps to 0, so no basis is
built.

A Klein tableau is a fold up the p-chain, from (beta,) for the zero
subgroup up to A, and one function, ``_on_top``, is its step: it puts
the tableau of U on top of that of pU.  Each caller hands the tableau
below down: an embedding keeps the tableaux of its own p-chain, which
its reductions share (their chains are tails of it with the same
bottom), and the oracle's census puts each subgroup on the tableau of
its parent pA in the tree it walks.  The ambient holds no tableau.
In a link's r-loop the sum X_r = p^2 U + pY is ``span(amb, p2U, pY)``,
which is pY itself, with no coset built, when pY holds p^2 U.

Each result is built once per embedding.  An ``Embedding`` caches its
span, its p-chain, its greedy generators and its truncations, one per
level ell below the exponent (from there on the truncation is E itself);
a cached truncation still has its quotient order checked against the
cap.  Derived embeddings inherit their chains instead of scaling again:
``reduce(E, s)`` takes the tail E.chain()[s:], so a subfactor takes a
tail of its cached truncation's chain, and ``lift`` starts its chain
p^{-1}A, A & pB from the intersection it takes the preimage of (A alone
when s = 0); ``Embedding.chain`` scales the rest when first used.  After
E's tableau, that of reduce(E, s), s >= 1, is one E has already built,
so comparing it with a restriction of E's checks ``restrict`` and the
chain tail, not the levels ``_link`` builds.  Those levels are checked
by the pinned census digest of the tests and by the
realization-fidelity and symbol-multiplicity checks of ``verify``.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import repeat
from math import isqrt
from typing import Iterable, Sequence

from .caps import general_cap
from .errors import CapExceeded
from .partitions import Partition, conjugate, json_record, json_typed, partition
from .s2cat import S2Object, object_of_tableau
from .tableaux import KleinTableau, LRTableau, _unchecked, chain_columns

SubgroupSet = frozenset  # of packed element ints, always containing 0


def _spread(elems: Iterable[int], field: Iterable[int], add=operator.add) -> Iterable[int]:
    """The sums e + c over e in elems and c in field, lazily, with c
    running fastest; a function so that each level keeps its field."""
    return (add(e, c) for e in elems for c in field)


class AmbientModule:
    """The module (+) Z/p^{beta_i}; an element is one int with a guarded
    bit field per coordinate (see the module docstring)."""

    def __init__(self, p: int, beta):
        # the cap comes first, so trial division takes at most isqrt(cap) steps
        limit = general_cap()
        if p > limit:
            raise CapExceeded(f"p = {p} exceeds cap {limit}")
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"p must be a prime, got {p}")
        self.p = p
        self.beta = partition(beta)
        n = sum(self.beta)
        # p >= 2, so p^n is over the cap once n reaches its bit length
        if n >= limit.bit_length() or p**n > limit:
            raise CapExceeded(f"ambient order {p}^{n} exceeds cap {limit}")
        self.size = p**n
        self.mods = tuple(p**b for b in self.beta)
        w = self._w = (max(self.mods, default=1) - 1).bit_length()
        shifts = self._shifts = tuple(i * (w + 1) for i in range(len(self.mods)))
        self._bias = sum(((1 << w) - m) << s for m, s in zip(self.mods, shifts))
        self._guards = sum(1 << (s + w) for s in shifts)
        self._moduli = sum(m << s for m, s in zip(self.mods, shifts))
        self._p_minus_1 = range(p - 1)
        self._grids: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._powers: dict[int, SubgroupSet] = {}
        self._power_orders = {  # |p^r B| -> r, r = 0..beta_1; they fall strictly to 1
            p ** sum(max(b - r, 0) for b in self.beta): r
            for r in range(max(self.beta, default=0) + 1)
        }
        self._times_p: dict[int, int] = {}  # x -> px, filled by pmul

    @classmethod
    def get(cls, p: int, beta) -> "AmbientModule":
        """The interned ambient of (p, beta); one over the cap in force (p
        too, for beta empty) is refused by the constructor, cached or not."""
        amb = _ambient(p, partition(beta))
        return amb if max(p, amb.size) <= general_cap() else cls(p, beta)

    # -- element encoding -------------------------------------------------

    def pack(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.beta):
            raise ValueError("coordinate count mismatch")
        return sum((c % m) << s for c, m, s in zip(coords, self.mods, self._shifts))

    def coords(self, x: int) -> tuple[int, ...]:
        low = (1 << self._w) - 1
        return tuple((x >> s) & low for s in self._shifts)

    def add(self, x: int, y: int) -> int:
        # g holds the guard bit of each field with x_i + y_i >= m_i, and
        # (g << 1) - (g >> w) is the mask of exactly those fields.
        u = x + y
        g = (u + self._bias) & self._guards
        return u - (self._moduli & ((g << 1) - (g >> self._w)))

    def pmul(self, x: int) -> int:
        u = self._times_p.get(x)
        if u is None:
            u = x
            for _ in self._p_minus_1:  # p - 1 additions of x
                u = self.add(u, x)
            self._times_p[x] = u
        return u

    def smul(self, k: int, x: int) -> int:
        low = (1 << self._w) - 1
        return sum((k * ((x >> s) & low) % m) << s for m, s in zip(self.mods, self._shifts))

    def divp(self, y: int) -> int:
        """The root x of y = px with coordinates y_i / p, for y in pB only:
        each field of y is p x_i with no carry, so the packed y is p times
        the packed x and one integer division finds it; off pB the
        quotient is no such root."""
        return y // self.p

    def _grid(self, steps: tuple[int, ...]) -> tuple[int, ...]:
        """The elements whose coordinate i is a multiple of steps[i], in
        increasing packed order (cached).  Each coordinate, from the last,
        spreads the elements so far over its field; the levels are lazy,
        so only the result is held in memory."""
        if steps not in self._grids:
            elems: Iterable[int] = (0,)
            for m, s, step in zip(self.mods[::-1], self._shifts[::-1], steps[::-1]):
                elems = _spread(elems, range(0, m << s, step << s))
            self._grids[steps] = tuple(elems)
        return self._grids[steps]

    def all_elements(self) -> tuple[int, ...]:
        """All elements in increasing packed order (cached)."""
        return self._grid((1,) * len(self.mods))

    def p_power_set(self, r: int) -> SubgroupSet:
        """The submodule p^r B as an element set (cached)."""
        if r not in self._powers:
            steps = tuple(self.p ** min(r, b) for b in self.beta)
            self._powers[r] = frozenset(self._grid(steps))
        return self._powers[r]

    def killed_by(self, k: int) -> tuple[int, ...]:
        """Elements annihilated by p^k, sorted (cached)."""
        return self._grid(tuple(self.p ** max(0, b - k) for b in self.beta))

    def __repr__(self) -> str:
        return f"AmbientModule(p={self.p}, beta={self.beta})"


# ---------------------------------------------------------------------------
# subgroup-set operations


def span(
    ambient: AmbientModule, gens: Iterable[int], base: SubgroupSet = frozenset({0})
) -> SubgroupSet:
    """The subgroup base + <gens>: each generator g not yet in it adds the
    cosets H + kg of the subgroup H built so far, until kg falls in H;
    the oracle's subgroup walk grows each extension W + <g> here too."""
    add, H = ambient.add, base
    for g in gens:
        if g in H:
            continue
        grown = set(H)
        cur = g
        while cur not in grown:
            grown.update(map(add, H, repeat(cur)))
            cur = add(cur, g)
        H = grown
    return frozenset(H)


def scale(ambient: AmbientModule, A: SubgroupSet) -> SubgroupSet:
    """The subgroup pA.  For A = p^r B it is the cached p^{r+1} B: the
    orders |p^r B| are distinct, so |A| names the only candidate r, and
    A is p^r B when r = 0 (A <= B) or when one set comparison says so.
    Otherwise ``pmul`` multiplies the elements the ambient's memo lacks,
    and the rest is a lookup."""
    r = ambient._power_orders.get(len(A))
    if r is not None and (r == 0 or A == ambient.p_power_set(r)):
        return ambient.p_power_set(r + 1)
    memo = ambient._times_p
    for x in A.difference(memo):
        ambient.pmul(x)
    return frozenset(map(memo.__getitem__, A))


def preimage(ambient: AmbientModule, A: SubgroupSet) -> SubgroupSet:
    """The subgroup p^{-1}A = {b : pb in A}, which depends on A only
    through its radical A & pB; read from ``_preimage``, a memo of the
    few radicals in use."""
    return _preimage(ambient, A & ambient.p_power_set(1))


@lru_cache(maxsize=1 << 9)
def _ambient(p: int, beta: Partition) -> AmbientModule:
    return AmbientModule(p, beta)


# The lifts of one embedding come in a burst: E, reduce(E) and
# reduce(lift(E)) lift two distinct radicals (lift(E) and reduce(lift(E))
# share one), and a partner lifted s <= 2 times adds one per step, so
# four entries serve a burst and no set outlives it for long.
@lru_cache(maxsize=4)
def _preimage(ambient: AmbientModule, radical: SubgroupSet) -> SubgroupSet:
    """p^{-1}A for A & pB = radical: the cosets a/p + B[p] over a in the
    radical, where a/p divides each coordinate of a by p.  Coordinate i
    of a/p is below p^{beta_i - 1} and that of a socle element is a
    multiple of it below p^{beta_i}, so no field of a sum reaches its
    modulus and the packed sum is the plain one.  A radical of pB gives
    B, whose set comes from the cached grid of B."""
    if len(radical) == len(ambient.p_power_set(1)):
        return frozenset(ambient.all_elements())
    socle = ambient.killed_by(1)
    return frozenset({r + k for r in map(ambient.divp, radical) for k in socle})


def _log(order: int, p: int) -> int:
    """The d with p^d = order, for a power of p, in exact integers."""
    d = 0
    while order > 1:
        order //= p
        d += 1
    return d


@lru_cache(maxsize=1 << 14)
def _layer_type(orders: tuple[int, ...], p: int) -> Partition:
    """Type of a module M from the orders |p^i M|, i = 0, 1, ..., ending
    at 1: p^{i-1}M / p^i M has order p^d with d the number of parts >= i.
    Memoised on (orders, p); see the module docstring."""
    return conjugate(partition([_log(big // small, p) for big, small in zip(orders, orders[1:])]))


def quotient_type(ambient: AmbientModule, X: SubgroupSet, order: int | None = None) -> Partition:
    """Type of B/X via |p^i(B/X)| = |p^i B| / |p^i B intersect X|, with
    |B| = ambient.size, so the set p^0 B is never built.  Only |X| and the
    p^i B & X, i >= 1, enter, so a caller may pass X & pB as X, with
    ``order`` = |X|."""
    sizes = [ambient.size // (len(X) if order is None else order)]
    while sizes[-1] > 1:
        piB = ambient.p_power_set(len(sizes))
        sizes.append(len(piB) // len(piB & X))
    return _layer_type(tuple(sizes), ambient.p)


# ---------------------------------------------------------------------------
# embeddings


class Embedding:
    """A subgroup A of an ambient module, as generators plus a cached set."""

    def __init__(
        self,
        ambient: AmbientModule,
        gens: Sequence[int] | None = None,
        subgroup: SubgroupSet | None = None,
    ):
        if gens is None and subgroup is None:
            raise ValueError("need generators or an explicit subgroup")
        self.ambient = ambient
        self._gens = tuple(gens) if gens is not None else None
        self._subgroup = frozenset(subgroup) if subgroup is not None else None
        self._achain: list[SubgroupSet] | None = None
        self._tabs: list[KleinTableau] = []  # _tabs[k]: the tableau of chain()[-1-k]
        self._truncations: dict[int, Embedding] = {}

    @classmethod
    def from_coords(cls, p: int, beta, gen_coords: Iterable[Sequence[int]]) -> "Embedding":
        amb = AmbientModule.get(p, beta)
        return cls(amb, tuple(amb.pack(c) for c in gen_coords))

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def beta(self) -> Partition:
        return self.ambient.beta

    @property
    def subgroup(self) -> SubgroupSet:
        if self._subgroup is None:
            self._subgroup = span(self.ambient, self._gens)
        return self._subgroup

    def generators(self) -> tuple[int, ...]:
        """The given generators, or a minimal generating set realizing the
        type of A: for each part m (descending), the smallest element of
        order p^m that stays independent of the span built so far."""
        if self._gens is None:
            typ = self.subgroup_type()
            self._gens = _greedy_basis(self.ambient, typ, frozenset({0}), sorted(self.subgroup))[0]
        return self._gens

    def chain(self) -> list[SubgroupSet]:
        """[A, pA, p^2 A, ..., 0]; its length minus one is the exponent.
        Built on first use, from the start a derived embedding was given;
        this is the one loop that extends a p-chain."""
        chain = self._achain
        if chain is None:
            chain = self._achain = [self.subgroup]
        while len(chain[-1]) > 1:
            chain.append(scale(self.ambient, chain[-1]))
        return chain

    @property
    def exponent(self) -> int:
        return len(self.chain()) - 1

    def subgroup_type(self) -> Partition:
        """Type of A, read off the orders of its p-chain."""
        return _layer_type(tuple(map(len, self.chain())), self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Embedding)
            and self.p == other.p
            and self.beta == other.beta
            and self.subgroup == other.subgroup
        )

    def __repr__(self) -> str:
        gens = [list(self.ambient.coords(g)) for g in self.generators()]
        return f"Embedding(p={self.p}, beta={list(self.beta)}, gens={gens})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "beta": list(self.beta),
            "gens": [list(self.ambient.coords(g)) for g in self.generators()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Embedding":
        """Inverse of ``to_json``; ValueError on any malformed field."""
        with json_record("embedding"):
            p, beta = json_typed(data["p"], int), json_typed(data["beta"], list, int)
            gens = [json_typed(g, list, int) for g in json_typed(data["gens"], list)]
        return cls.from_coords(p, beta, gens)


def module_type(ambient: AmbientModule, U: SubgroupSet) -> Partition:
    """Type of a subgroup from its layer cardinalities |p^i U|."""
    return Embedding(ambient, subgroup=U).subgroup_type()


def _from_chain(ambient: AmbientModule, chain: list[SubgroupSet]) -> Embedding:
    """The embedding of chain[0], given a start of its p-chain."""
    E = Embedding(ambient, subgroup=chain[0])
    E._achain = chain
    return E


def _greedy_basis(
    ambient: AmbientModule, typ: Partition, X: SubgroupSet, candidates: Sequence[int]
) -> tuple[tuple[int, ...], list[SubgroupSet]]:
    """A basis, found greedily, of the subquotient of type typ that the
    candidates span over X, and the spans S_j = X + <y_1, ..., y_j> in
    force when y_{j+1} was chosen (spans[0] is X; the last span, all of
    the candidates, is never built).  For each part m, y is the first
    candidate with p^m y in X and p^{m-1} y outside the span S so far; so
    the cosets S + ky, 0 <= k < p^m, are disjoint, and the candidates are
    spanned exactly when |X| p^{|typ|} is their number."""
    spans = [X]
    basis: list[int] = []
    for m in typ:
        if basis:
            spans.append(span(ambient, basis[-1:], spans[-1]))
        S = spans[-1]
        for y in candidates:
            if y in S:
                continue
            z = y
            for _ in range(m - 1):
                z = ambient.pmul(z)
            if z not in S and ambient.pmul(z) in X:
                break
        else:
            raise AssertionError("basis extraction failed")
        basis.append(y)
    if len(X) * ambient.p ** sum(typ) != len(candidates):
        raise AssertionError("greedy basis does not span the candidates")
    return tuple(basis), spans


def _peel(ambient: AmbientModule, typ: Partition, basis, spans, g: int) -> tuple[int, ...]:
    """The coordinates k of g over a greedy basis, g - sum k_j y_j in X:
    from the last basis vector down, k_j is the k < p^{m_j} with
    g - k y_j in the span S_{j-1} below y_j."""
    ks = []
    for m, y, S in zip(typ[::-1], basis[::-1], spans[::-1]):
        minus_y = ambient.smul(-1, y)
        for k in range(ambient.p**m):
            if g in S:
                break
            g = ambient.add(g, minus_y)
        else:
            raise AssertionError("element outside the greedy span")
        ks.append(k)
    return tuple(ks[::-1])


# ---------------------------------------------------------------------------
# tableau extraction


def lr_tableau(E: Embedding) -> LRTableau:
    """Chain of quotient types type(B / p^i A) for i = 0..exponent."""
    amb = E.ambient
    return _unchecked(tuple(quotient_type(amb, Ai) for Ai in E.chain()))


def _link(
    amb: AmbientModule, UpB: SubgroupSet, p2U: SubgroupSet, g1: Partition, g2: Partition
) -> tuple:
    """The entry-2 level ((row, subs), ...) of U <= B with pU nonzero,
    from UpB = U & pB, p2U = p^2 U, g1 = type(B/pU) and g2 = type(B/p^2 U).
    Its chain of types of B / X_r, with X_r = p^2 U + p(U & p^r B), over
    r = 1..n-1, n the exponent of B, grows from g1 to g2; the boxes
    appearing at step r get subscript r.  U enters only through U & pB,
    since U & p^r B = (U & pB) & p^r B for r >= 1 (see ``_on_top``).
    """
    subs: dict[int, list[int]] = {}
    Y, prev_Y, prev_type = UpB, None, g1
    for r in range(1, amb.beta[0]):
        Y = Y & amb.p_power_set(r)
        if Y == prev_Y:
            continue
        prev_Y = Y
        pY = scale(amb, Y)
        cur = quotient_type(amb, span(amb, p2U, pY))
        if cur == prev_type:
            continue
        # the rows of the strip cur \ prev_type, the first count of its chain
        for m, grow in chain_columns(prev_type, prev_type, cur)[0].items():
            subs.setdefault(m, []).extend([r] * grow)
        prev_type = cur
        if cur == g2:  # X_r only shrinks, to p^2 U
            break
    if prev_type != g2:
        raise AssertionError("subscript chain did not reach the strip top")
    return tuple(sorted((m, tuple(rs)) for m, rs in subs.items()))


def _on_top(
    amb: AmbientModule, below: KleinTableau, order: int, UpB: SubgroupSet, p2U: SubgroupSet, memo: dict
) -> KleinTableau:
    """The Klein tableau of U <= B, from ``below``, that of pU, with
    order = |U|, UpB = U & pB and p2U = p^2 U: the one step of every
    tableau fold.  Level ell of U reads only p^{ell-2} U, p^ell U and the
    layers p^r B, so it is level ell - 1 of pU, and the types of B/p^i U,
    i >= 1, are the gammas of pU.  So the step puts type(B/U) in front of
    below's gammas and, when pU is nonzero, U's entry-2 level (``_link``)
    in front of its levels.  The type reads |U| and U & pB, since
    p^i B & U = p^i B & (U & pB) for i >= 1 (``quotient_type`` with
    ``order``); the level reads U & pB, p^2 U and the first two gammas of
    pU, g^1 = type(B/pU) and g^2 = type(B/p^2 U), which p^2 U fixes.
    ``memo``, a dict the caller owns, keeps each level on
    (U & pB, p^2 U, g^1) and each type on (|U|, U & pB): ``klein_tableau``
    passes a fresh one, and the census one per call, across which both
    repeat.  The gammas are canonical and each level's cells get their
    subscripts in increasing r, so the tableau is built unchecked.
    """
    levels = below.levels
    if below.e:  # pU is nonzero
        key = (UpB, p2U, below.base)
        level = memo.get(key)
        if level is None:
            level = memo[key] = _link(amb, UpB, p2U, *below.gammas[:2])
        levels = (level,) + levels
    key = (order, UpB)
    gamma = memo.get(key)
    if gamma is None:
        gamma = memo[key] = quotient_type(amb, UpB, order)
    return _unchecked((gamma,) + below.gammas, levels)


def klein_tableau(E: Embedding) -> KleinTableau:
    """Subscripted tableau of an embedding, folded up its p-chain from
    (beta,) for the zero subgroup by ``_on_top``.  The tableaux are kept
    bottom-up in ``E._tabs``, the list a reduction shares, so each step
    is built once for an embedding and all its reductions.
    """
    amb, tabs, chain = E.ambient, E._tabs, E.chain()
    if not tabs:
        tabs.append(_unchecked((amb.beta,), ()))
    chain = chain + chain[-1:]  # p^{e+1} A = 0 too
    pB, memo = amb.p_power_set(1), {}
    for j in range(len(chain) - 2 - len(tabs), -1, -1):
        U = chain[j]
        tabs.append(_on_top(amb, tabs[-1], len(U), U & pB, chain[j + 2], memo))
    return tabs[len(chain) - 2]


# ---------------------------------------------------------------------------
# canonical embeddings and constructions


def picket_embedding(p: int, ell: int, m: int) -> Embedding:
    """(p^{m-ell}) inside Z/p^m."""
    if not 0 <= ell <= m:
        raise ValueError("need 0 <= ell <= m")
    gens = [(p ** (m - ell),)] if ell else []
    return Embedding.from_coords(p, (m,), gens)


def bipicket_embedding(p: int, m: int, r: int) -> Embedding:
    """The diagonal ((p^{m-2}, p^{r-1})) inside Z/p^m + Z/p^r."""
    if not 1 <= r <= m - 1:
        raise ValueError("need 1 <= r <= m-1")
    return Embedding.from_coords(p, (m, r), [(p ** (m - 2), p ** (r - 1))])


def empty_embedding(p: int) -> Embedding:
    return Embedding.from_coords(p, (), [])


def direct_sum(*summands: Embedding) -> Embedding:
    """Block-diagonal sum of one or more embeddings over one prime, in one
    ambient whose columns are re-sorted into a partition (ties keep the
    summands' order); each generator is packed once."""
    if not summands:
        raise ValueError("a direct sum needs a summand to fix the prime")
    p = summands[0].p
    if any(E.p != p for E in summands):
        raise ValueError("summands must share the prime")
    # (-part, summand, column) of every column, in the order of the sum
    cols = sorted((-part, k, i) for k, E in enumerate(summands) for i, part in enumerate(E.beta))
    amb = AmbientModule.get(p, [-part for part, _, _ in cols])
    slot = {(k, i): j for j, (_, k, i) in enumerate(cols)}
    gens = []
    for k, E in enumerate(summands):
        for g in E.generators():
            at = {slot[k, i]: c for i, c in enumerate(E.ambient.coords(g))}
            gens.append(amb.pack([at.get(j, 0) for j in range(len(cols))]))
    return Embedding(amb, gens=gens)


def random_embedding(p: int, beta, k: int, seed: int) -> Embedding:
    """k uniformly random generators; bit-exact reproducible per seed."""
    amb = AmbientModule.get(p, beta)
    rng = random.Random(seed)
    gens = [
        amb.pack(tuple(rng.randrange(m) for m in amb.mods)) for _ in range(k)
    ]
    return Embedding(amb, gens=gens)


def object_embedding(obj: S2Object, p: int) -> Embedding:
    """The direct sum of the canonical picket/bipicket embeddings of an
    object's summands, after the empty embedding, so the zero object has
    one too."""
    pieces = []
    for (ell, m, r), k in obj.summands:
        piece = bipicket_embedding(p, m, r) if r else picket_embedding(p, ell, m)
        pieces += [piece] * k
    return direct_sum(empty_embedding(p), *pieces)


def realize(tab: KleinTableau, p: int) -> Embedding:
    """A concrete embedding whose Klein tableau is the given entries-<=2
    tableau: the embedding of its decoded object."""
    return object_embedding(object_of_tableau(tab), p)


# ---------------------------------------------------------------------------
# functors: lifting, reducing, truncation


def lift(E: Embedding, s: int = 1) -> Embedding:
    """Replace A by p^{-s} A.  Each step takes X to p^{-1}X = p^{-1}(X & pB),
    and X & pB = p(p^{-1}X) is the second link of the result's chain,
    which continues from there when first used."""
    if s < 0:
        raise ValueError("need s >= 0")
    amb, chain = E.ambient, [E.subgroup]
    for _ in range(s):
        radical = chain[0] & amb.p_power_set(1)
        chain = [preimage(amb, radical), radical]
    return _from_chain(amb, chain if len(chain[0]) > 1 else chain[:1])


def reduce(E: Embedding, s: int = 1) -> Embedding:
    """Replace A by p^s A, with the tail of the p-chain of A as its chain;
    the tail has A's bottom, so it shares A's tableaux."""
    if s < 0:
        raise ValueError("need s >= 0")
    chain = E.chain()
    R = _from_chain(E.ambient, chain[min(s, len(chain) - 1):])
    R._tabs = E._tabs
    return R


def truncate(E: Embedding, ell: int) -> Embedding:
    """The approximation E|^ell = (A/p^ell A <= B/p^ell A).

    The quotient B/X, X = p^ell A, gets a fresh ambient of its type with
    a greedily chosen basis; any basis works since only types and
    tableaux are extracted.  Each generator of A is packed from its
    coordinates over the basis, peeled off the greedy rule's spans from
    the last basis vector down, and the new subgroup is spanned from the
    images on demand.  At ell = 0, X = A and every generator maps to 0,
    so no basis is built: the truncation is the zero subgroup of B/A,
    with one zero generator per generator of A.  Each level is built
    once per embedding;
    a cached one has the order of its quotient checked against the cap
    like a new one.
    """
    if ell < 0:
        raise ValueError("level must be >= 0")
    if ell >= E.exponent:  # p^ell A = 0
        return E
    amb = E.ambient
    cut = E._truncations.get(ell)
    if cut is not None:
        AmbientModule.get(amb.p, cut.beta)  # the cap check of a new one
        return cut
    X = E.chain()[ell]
    gamma = quotient_type(amb, X)
    new_amb = AmbientModule.get(amb.p, gamma)
    if ell == 0:  # X = A, so every generator maps to 0, packed as 0
        gens = (0,) * len(E.generators())
    else:
        basis, spans = _greedy_basis(amb, gamma, X, amb.all_elements())
        gens = tuple(new_amb.pack(_peel(amb, gamma, basis, spans, g)) for g in E.generators())
    cut = E._truncations[ell] = Embedding(new_amb, gens=gens)
    return cut


def subfactor(E: Embedding, ell: int, u: int) -> Embedding:
    """E|^ell_u = reduce(truncate(E, ell), ell - u)."""
    if not 0 <= u <= ell:
        raise ValueError("need 0 <= u <= ell")
    return reduce(truncate(E, ell), ell - u)
