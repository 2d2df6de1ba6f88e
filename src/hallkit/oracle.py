"""Brute-force ground truth at q = p.

Everything here but the census's leaves (counted in closed form, see
below) is exhaustive enumeration under the configured caps:
subgroup lattices by triangular generators, one generator at a time,
each extension the ``span`` of one element over the subgroup so far,
from one element per coset, which yields each subgroup exactly once
(``_walk``); and morphisms by one walk over
the module maps B_E -> B_F that carry A_E into A_F (``_module_maps``).
The walk builds each generator's image once per prefix of unit images
and adds the last unit's term per map.  Hom counts count that walk;
End and Aut counts come from one walk over E's endomorphisms, Aut
keeping the maps that are invertible mod p (a rank test on each block
of equal parts); and the orbit check spans the generator images of the
invertible maps into the whole ambient.  These counts are what
every symbolic formula in the package is checked against.

``hom_order`` counts Hom(E, F) without the walk, as the kernel of
phi -> (phi(g_t) + A_F)_t on Hom(B_E, B_F), whose image order is the
order of a span over Z/p^N (``zpn.span_exponent``);
``adjointness_check`` reads it, and tests compare it with the walk.

The census of M(beta) is a read-only ``Census`` record; ``_census`` keeps
the one being read, as each reader reads a beta's census in a row, and
``census`` checks the census bound on every call.  It counts each
subgroup once, by the Klein tableau of its embedding, in a depth-first
walk of the tree where the parent of A is pA.  Only C <= pB has children,
the C < A <= p^{-1}C with pA = C, and each child's tableau is put on top
of C's by the tableau fold's step, ``embeddings._on_top``, which reads A
only through |A|, A & pB and p^2 A = pC, so the census builds no
embedding and no p-chain.  A child outside pB is a leaf.  So a node walks
only the X between C and p^{-1}C & pB (``_fibre``, by ``_walk``): an X
with pX = C is an inner child, and the leaves with A & pB = X are
counted per order in closed form (``_leaf_count``), never built, each
(|A|, X) adding its tableau once, with its multiplicity.  One dict per
enumeration is the step's memo, so its levels and types, which repeat
across siblings and across nodes, are built once per census, and the
dict is dropped when the census returns.  Over the 42 beta with
|beta| <= 7 and at most five parts at p = 2 the census walks 753 X for 6,590
subgroups, enters 272 of them, builds 393 levels and reads 649 types.  A
tableau of type (alpha, beta, gamma) carries the subgroup's type alpha
(the conjugate of its strip sizes) and quotient type gamma (its base),
so a type pair's count is the sum of its tableaux' counts:
g^beta_{alpha,gamma}(p) = sum over T of g_T(p).

The subgroup enumeration and the census are bounded by the smaller of
the subgroup cap and the general cap, checked on p^|beta| before M(beta)
is built; the morphism walks by the general cap on the hom space (see
``caps``).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby, product, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .caps import general_cap, subgroup_cap
from .embeddings import (
    AmbientModule,
    Embedding,
    SubgroupSet,
    _greedy_basis,
    _log,
    _on_top,
    _spread,
    lift,
    reduce,
    span,
)
from .errors import CapExceeded
from .partitions import Partition, partition
from .qforms import gaussian_binomial
from .tableaux import KleinTableau, _unchecked, tableau_type
from .zpn import span_exponent


# ---------------------------------------------------------------------------
# subgroup enumeration


def _lattice_ambient(p: int, beta) -> AmbientModule:
    """M(beta), after its order p^|beta| is checked against the census
    bound, the smaller of the subgroup cap and the general cap; a prime
    p < 2 is refused by ``AmbientModule``."""
    limit = min(subgroup_cap(), general_cap())
    n = sum(partition(beta))
    # p^n is over the bound, and too large to write out, once n passes the
    # bound's bit length or p passes the bound itself
    huge = n > limit.bit_length() or (n > 0 and p > limit)
    if p >= 2 and (huge or p**n > limit):
        order = f"{p}^{n}" if huge else p**n
        raise CapExceeded(f"ambient order {order} exceeds subgroup cap {limit}")
    return AmbientModule.get(p, beta)


def _walk(
    amb: AmbientModule, base: SubgroupSet, gens: Sequence[int], orders: Sequence[int]
) -> Iterator[SubgroupSet]:
    """Every subgroup V with base <= V <= base + <gens> exactly once, in
    a deterministic order, where (base + <gens>) / base is the direct sum
    of the cyclic groups generated by the gens, of orders p^orders.

    Let B_k be the span of the first k gens over base and V_k = V & B_k.
    Then V_{k+1} is either V_k or ``span(amb, (y + p^j g_{k+1},), V_k)``
    for j = 0, 1, ... below b = orders[k] while p^{b - j} y lies in V_k,
    where y runs over the sums of c_i g_i, i <= k, with c_i below p^{j_i}
    for the j_i chosen at step i (p^{b_i} where V_{i+1} = V_i): one sum
    in each coset of B_k / V_k, and with unit gens its least element.
    Every such V has exactly one chain of choices (its Hermite form,
    written over element sets), so a depth-first walk over the choices
    yields each V once, without comparing it against the others.
    """
    add, p = amb.add, amb.p
    multiples = [  # c g for c < p^b, per generator
        list(accumulate(repeat(g, p**b - 1), add, initial=0)) for g, b in zip(gens, orders)
    ]
    stack = [(0, base, (0,))]
    while stack:
        k, W, sums = stack.pop()
        if k == len(gens):
            yield W
            continue
        b, mults, sums = orders[k], multiples[k], sorted(sums)
        stack.append((k + 1, W, _spread(sums, mults, add)))
        for y in sums:
            chain = [y]  # y, py, ..., p^b y
            for _ in range(b):
                chain.append(amb.pmul(chain[-1]))
            for j in range(b):
                if chain[b - j] not in W:
                    break
                grown = span(amb, (add(y, mults[p**j]),), W)
                stack.append((k + 1, grown, _spread(sums, mults[: p**j], add)))


def enumerate_subgroups(p: int, beta) -> Iterator[SubgroupSet]:
    """Every subgroup of M(beta) exactly once, in a deterministic order:
    the walk ``_walk`` from 0 over the unit vectors, of orders beta.
    """
    amb = _lattice_ambient(p, beta)
    s = len(amb.beta)
    units = [amb.pack([i == k for i in range(s)]) for k in range(s)]
    yield from _walk(amb, frozenset({0}), units, amb.beta)


@lru_cache(maxsize=1 << 14)
def _leaf_count(p: int, n: int, a: int, k: int, m: int, d: int) -> int:
    """The d-subspaces V of W = F_p^n with V & Q = 0 and V + K = W, where
    a, k and m are the dimensions of Q, K and Q & K: Moebius inversion,
    mu(0, Y) = (-1)^y p^{C(y, 2)}, over the [m, j]_p p^{(m-j)(y-j)}
    [a-m, y-j]_p Y <= Q with dim Y = y and dim(Y & K) = j, of the
    p^{(n-y-k+j)(n-d)} [k-j, n-d]_p such V above Y; all exact ints."""
    total = 0
    for y in range(min(a, d) + 1):
        for j in range(max(0, y - a + m), min(m, y) + 1):
            if above := gaussian_binomial(k - j, n - d, p):
                power = y * (y - 1) // 2 + (m - j) * (y - j) + (n - y - k + j) * (n - d)
                inside = gaussian_binomial(m, j, p) * gaussian_binomial(a - m, y - j, p)
                total += (-1) ** y * p**power * inside * above
    return total


def _fibre(amb: AmbientModule, C: SubgroupSet) -> Iterator[tuple[SubgroupSet, bool, list]]:
    """The children A of C <= pB, pA = C, as (X, inner, leaves) per X with
    C <= X <= p^{-1}C & pB: inner when X is a child, and leaves the
    (|A|, count) of the children outside pB with A & pB = X.  In
    W = p^{-1}C / C, of dimension s = len(beta), a child is a V with
    V + K = W, K = (C + B[p]) / C the kernel of px + pC, of dimension
    s - u with u = dim C[p]; Q = (p^{-1}C & pB) / C, and
    dim(Q & K) = (parts of beta above 1) - u."""
    p, s = amb.p, len(amb.beta)
    # the socle of pB, pB[p]: C and every X lie in pB, so it is all they meet of B[p]
    socle = amb.p_power_set(1).intersection(amb.killed_by(1))
    dim = lambda order: _log(order, p)
    u = dim(len(C & socle))
    # x in pB with px in C: c/p plus a socle element of pB, c in C & p^2 B
    inside = amb.roots(C & amb.p_power_set(2), socle)
    q = dim(len(inside) // len(C))
    m = sum(b > 1 for b in amb.beta) - u
    for X in _walk(amb, C, _greedy_basis(amb, (1,) * q, C, sorted(inside))[0], (1,) * q):
        x, xK = dim(len(X) // len(C)), dim(len(X & socle)) - u
        n, k = s - x, s - u - xK
        counts = ((len(X) * p**d, _leaf_count(p, n, q - x, k, m - xK, d)) for d in range(1, n + 1))
        yield X, 0 < x and n == k, [(order, count) for order, count in counts if count]


def _count_subtree(
    amb: AmbientModule, C: SubgroupSet, pC: SubgroupSet, tab: KleinTableau, counts: Counter, memo: dict
) -> None:
    """Count the Klein tableau ``tab`` of C <= pB, then, depth first,
    those of the subgroups above C in the tree where the parent of A is
    pA: an inner child of ``_fibre`` by its own call, and the leaves per
    (|A|, A & pB), each child's tableau put on ``tab`` by ``_on_top``
    with ``memo``, which ``census`` creates empty and drops when it
    returns.
    """
    counts[tab] += 1
    for X, inner, leaves in _fibre(amb, C):
        if inner:
            _count_subtree(amb, X, C, _on_top(amb, tab, len(X), X, pC, memo), counts, memo)
        for order, count in leaves:
            counts[_on_top(amb, tab, order, X, pC, memo)] += count


@dataclass(frozen=True)
class Census:
    """The subgroups of M(beta) counted by the Klein tableau of their
    embedding, and by (subgroup type, quotient type), with the time the
    count took.  Both mappings are read-only views."""

    tableaux: Mapping[KleinTableau, int]
    types: Mapping[tuple[Partition, Partition], int]
    elapsed: float


def census(p: int, beta) -> Census:
    """The census of M(beta), kept by ``_census`` for the interned ambient
    read last; the census bound is checked on every call, cached or not."""
    return _census(_lattice_ambient(p, beta))


@lru_cache(maxsize=1)
def _census(amb: AmbientModule) -> Census:
    start = time.monotonic()
    zero, tableaux = frozenset({0}), Counter()
    _count_subtree(amb, zero, zero, _unchecked((amb.beta,), ()), tableaux, {})
    types = Counter()
    for tab, count in tableaux.items():
        types[(tableau_type(tab)[0], tab.base)] += count
    return Census(MappingProxyType(tableaux), MappingProxyType(types), time.monotonic() - start)


def hall_census(p: int, beta) -> dict[tuple[Partition, Partition], int]:
    """Counts of subgroups keyed by (subgroup type, quotient type)."""
    return dict(census(p, beta).types)


def hall_count(p: int, alpha, beta, gamma) -> int:
    """Number of subgroups of the given type with the given quotient
    type."""
    return census(p, beta).types.get((partition(alpha), partition(gamma)), 0)


def hall_count_by_tableau(p: int, beta) -> dict[KleinTableau, int]:
    """Subgroup counts keyed by the Klein tableau of the embedding."""
    return dict(census(p, beta).tableaux)


# ---------------------------------------------------------------------------
# morphism counting


def _invertible_mod_p(rows: list[tuple[int, ...]], p: int) -> bool:
    """True iff the square matrix with the given rows, entries already
    reduced mod p, is invertible mod p."""
    M, n = list(rows), len(rows)
    for i in range(n):
        piv = next((r for r in range(i, n) if M[r][i]), None)
        if piv is None:
            return False
        M[i], M[piv] = M[piv], M[i]
        inv = pow(M[i][i], -1, p)
        for r in range(i + 1, n):
            factor = M[r][i] * inv % p
            if factor:
                M[r] = [(a - factor * b) % p for a, b in zip(M[r], M[i])]
    return True


def _check_primes(E: Embedding, F: Embedding) -> None:
    if E.p != F.p:
        raise ValueError("embeddings must share the prime")


def _module_maps(E: Embedding, F: Embedding) -> Iterator[tuple]:
    """Every module map B_E -> B_F that carries A_E into A_F.

    A map is fixed by the images of the unit vectors: the i-th goes to an
    element of B_F killed by p^{beta_i}.  Each map is yielded as
    (idx, images): idx[i] indexes the i-th unit image in
    ``F.ambient.killed_by(beta_i)``, and images are the images of E's
    generators, in the order of ``itertools.product`` over idx.  Each
    generator's images stream from nested lazy sums, one level per
    coordinate: the image over a prefix of idx is built once and shared
    by every map extending it, so a map costs one addition per generator
    for its last unit image.  A map is kept when all its generator images
    lie in A_F.
    """
    _check_primes(E, F)
    ambE, ambF = E.ambient, F.ambient
    allowed = [ambF.killed_by(b) for b in ambE.beta]
    total = 1
    for block in allowed:
        total *= len(block)
    limit = general_cap()
    if total > limit:
        raise CapExceeded(f"hom space of size {total} exceeds cap {limit}")
    add, target = ambF.add, F.subgroup
    streams = []
    for g in E.generators():
        # the generator's images over every idx, in product order
        images: Iterable[int] = (0,)
        for c, block in zip(ambE.coords(g), allowed):
            images = _spread(images, [ambF.smul(c, y) for y in block], add)
        streams.append(images)
    for idx, *images in zip(product(*[range(len(block)) for block in allowed]), *streams):
        if target.issuperset(images):
            yield idx, images


def _flagged_maps(E: Embedding, F: Embedding) -> Iterator[tuple[bool, list[int]]]:
    """The maps of ``_module_maps(E, F)`` as (invertible mod p, generator
    images); F lives in E's ambient.

    The image of e_i is killed by p^{beta_i}, so its coordinates j with
    beta_j > beta_i vanish mod p: the residue matrix is block-triangular
    by part size, and it is invertible iff each square block of equal
    parts is.  Only those blocks are rank-tested, each distinct block
    once per walk.
    """
    amb, p = E.ambient, E.p
    # per run of equal parts b: its rows, the admissible images of such a
    # row (elements killed by p^b), and the rank test of each block seen
    # so far, keyed on the run's slice of idx
    runs, start = [], 0
    for b, run in groupby(amb.beta):
        rows = slice(start, start + len(list(run)))
        runs.append((rows, amb.killed_by(b), {}))
        start = rows.stop

    def full_rank(idx: tuple[int, ...]) -> bool:
        for rows, admissible, seen in runs:
            key = idx[rows]
            if key not in seen:
                # the block: residues mod p of the row images on the run's columns
                block = [tuple(c % p for c in amb.coords(admissible[k])[rows]) for k in key]
                seen[key] = _invertible_mod_p(block, p)
            if not seen[key]:
                return False
        return True

    for idx, images in _module_maps(E, F):
        yield full_rank(idx), images


def hom_count(E: Embedding, F: Embedding) -> int:
    """Number of morphisms (A_E <= B_E) -> (A_F <= B_F): module maps
    B_E -> B_F carrying A_E into A_F."""
    return sum(1 for _ in _module_maps(E, F))


def hom_order(E: Embedding, F: Embedding) -> int:
    """|Hom(E, F)| as the order of a kernel, with no walk over maps.

    Hom(E, F) is the kernel of Phi: Hom(B_E, B_F) -> (B_F / A_F)^k,
    phi -> (phi(g_t) + A_F)_t over E's generators g_1 ... g_k.  The
    basis maps e_i -> p^{max(0, c_j - b_i)} f_j span Hom(B_E, B_F), of
    order p^{sum min(b_i, c_j)}; the image of one has g_t[i] times that
    unit in copy t, column j.  So |im Phi| is the order of their span
    with A_F's generators in every copy, over the order of A_F^k.
    """
    _check_primes(E, F)
    p, beta, gamma = E.p, E.beta, F.beta
    gens = [E.ambient.coords(g) for g in E.generators()]
    relations = [F.ambient.coords(h) for h in F.generators()]
    k, n = len(gens), len(gamma)
    rows = [(0,) * (t * n) + h + (0,) * ((k - t - 1) * n) for t in range(k) for h in relations]
    for i, b in enumerate(beta):
        for j, c in enumerate(gamma):
            unit = p ** max(0, c - b)
            rows.append([g[i] * unit if col == j else 0 for g in gens for col in range(n)])
    image = span_exponent(rows, gamma * k, p) - k * span_exponent(relations, gamma, p)
    return p ** (sum(min(b, c) for b in beta for c in gamma) - image)


def end_aut_counts(E: Embedding) -> tuple[int, int]:
    """|End E| and |Aut E| from one walk over the endomorphisms of E:
    module maps of the ambient carrying the subgroup into itself, and
    those of them invertible mod p."""
    end = aut = 0
    for invertible, _ in _flagged_maps(E, E):
        end += 1
        aut += invertible
    return end, aut


def aut_count(E: Embedding) -> int:
    """Number of automorphisms of the embedding: invertible module maps
    of the ambient fixing the subgroup setwise."""
    return end_aut_counts(E)[1]


def aut_count_module(p: int, beta) -> int:
    """Number of module automorphisms of M(beta)."""
    return aut_count(Embedding(AmbientModule.get(p, beta), gens=()))


def orbit_check(E: Embedding) -> bool:
    """Compare the orbit of A under ambient automorphisms, counted
    directly, with the quotient of the two brute-force group orders."""
    amb = E.ambient
    whole = Embedding(amb, subgroup=amb.all_elements())
    autB, orbit = 0, set()
    for invertible, images in _flagged_maps(E, whole):
        if invertible:
            autB += 1
            orbit.add(span(amb, images))
    autE = aut_count(E)
    return autB % autE == 0 and len(orbit) == autB // autE


def adjointness_check(E: Embedding, F: Embedding, s: int) -> bool:
    """Hom(E reduced s times, F) and Hom(E, F lifted s times) agree in
    size, both counted as kernel orders."""
    return hom_order(reduce(E, s), F) == hom_order(E, lift(F, s))
