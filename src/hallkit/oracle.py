"""Brute-force ground truth at q = p.

Everything here is exhaustive enumeration under the configured caps:
subgroup lattices by triangular generators, one coordinate at a time,
each extension the ``span`` of one generator over the subgroup so far,
which yields each subgroup exactly once (a visited coset y + W is
marked as one ``map(add, W, repeat(y))``); and morphisms by one walk over
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

The census of M(beta) is one read-only ``Census`` record per (p, beta).
It counts each subgroup once, by the Klein tableau of its embedding,
folded up its p-chain onto the links that earlier subgroups stored on
the ambient (``klein_tableau`` keeps that memo to O(|B|) elements), so
each p^i A that many subgroups share is typed once.  A tableau of type
(alpha, beta, gamma) carries the subgroup's type alpha (the conjugate
of its strip sizes) and quotient type gamma (its base), so a type
pair's count is the sum of its tableaux' counts:
g^beta_{alpha,gamma}(p) = sum over T of g_T(p).

A ``cap`` argument is the subgroup cap (``--subgroup-cap``) in the
subgroup enumeration and the census functions, and the general cap
(``--cap``) everywhere else.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, product, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .caps import general_cap, subgroup_cap
from .embeddings import (
    AmbientModule,
    Embedding,
    SubgroupSet,
    _spread,
    klein_tableau,
    lift,
    reduce,
    span,
)
from .errors import CapExceeded
from .partitions import Partition, partition
from .tableaux import KleinTableau, tableau_type
from .zpn import span_exponent


# ---------------------------------------------------------------------------
# subgroup enumeration


def _lattice_ambient(p: int, beta, cap: int | None) -> AmbientModule:
    """M(beta), after checking its order against the subgroup cap."""
    amb = AmbientModule.get(p, beta)
    limit = subgroup_cap(cap)
    if amb.size > limit:
        raise CapExceeded(f"ambient order {amb.size} exceeds subgroup cap {limit}")
    return amb


def enumerate_subgroups(p: int, beta, cap: int | None = None) -> Iterator[SubgroupSet]:
    """Every subgroup of M(beta) exactly once, in a deterministic order.

    Let B_k be the span of the first k coordinates and V_k = V & B_k.
    Then V_{k+1} is either V_k or ``span(amb, (y + p^j e_{k+1},), V_k)``
    for j = 0, 1, ... below beta_{k+1} while p^{beta_{k+1} - j} y lies in
    V_k, where y is the least element of its coset in B_k / V_k.  Every
    subgroup has exactly one such chain of choices (its Hermite form,
    written over element sets), so a depth-first walk over the choices
    yields each subgroup once, without comparing it against the others.
    ``cap`` is the subgroup cap (``--subgroup-cap``) on M(beta)'s order.
    """
    amb = _lattice_ambient(p, beta, cap)
    add, s = amb.add, len(amb.beta)
    # levels[k] = (b, chains, steps) with b = beta_{k+1}: the multiples
    # y, py, ..., p^b y of each y in B_k, in increasing packed order of y,
    # and the generators p^j e_{k+1} for j < b.
    levels = []
    for k, b in enumerate(amb.beta):
        chains = [[y] for y in amb._grid((1,) * k + amb.mods[k:])]
        for _ in range(b):
            for chain in chains:
                chain.append(amb.pmul(chain[-1]))
        steps = [amb.pack([p**j * (i == k) for i in range(s)]) for j in range(b)]
        levels.append((b, chains, steps))
    stack = [(0, frozenset({0}))]
    while stack:
        k, W = stack.pop()
        if k == s:
            yield W
            continue
        b, chains, steps = levels[k]
        stack.append((k + 1, W))
        covered: set[int] = set()  # the cosets y + W already visited
        for chain in chains:
            y = chain[0]
            if y in covered or chain[b] not in W:
                continue
            covered.update(map(add, W, repeat(y)))
            for j in range(b):
                if chain[b - j] not in W:
                    break
                stack.append((k + 1, span(amb, (add(y, steps[j]),), W)))


@dataclass(frozen=True)
class Census:
    """The subgroups of M(beta) counted by the Klein tableau of their
    embedding, and by (subgroup type, quotient type), with the time the
    count took.  Both mappings are read-only views."""

    tableaux: Mapping[KleinTableau, int]
    types: Mapping[tuple[Partition, Partition], int]
    elapsed: float


_censuses: dict[tuple[int, Partition], Census] = {}


def census(p: int, beta, cap: int | None = None) -> Census:
    """The census of M(beta), from one enumeration cached per (p, beta).
    ``cap`` is the subgroup cap (``--subgroup-cap``), checked on every
    call, cached or not."""
    amb = _lattice_ambient(p, beta, cap)
    key = (p, amb.beta)
    if key not in _censuses:
        start = time.monotonic()
        tableaux = Counter(
            klein_tableau(Embedding(amb, subgroup=U))
            for U in enumerate_subgroups(p, amb.beta, cap)
        )
        types = Counter()
        for tab, count in tableaux.items():
            types[(tableau_type(tab)[0], tab.base)] += count
        elapsed = time.monotonic() - start
        _censuses[key] = Census(MappingProxyType(tableaux), MappingProxyType(types), elapsed)
    return _censuses[key]


def hall_census(p: int, beta, cap: int | None = None) -> dict[tuple[Partition, Partition], int]:
    """Counts of subgroups keyed by (subgroup type, quotient type);
    ``cap`` is the subgroup cap (``--subgroup-cap``)."""
    return dict(census(p, beta, cap).types)


def hall_count(p: int, alpha, beta, gamma, cap: int | None = None) -> int:
    """Number of subgroups of the given type with the given quotient
    type; ``cap`` is the subgroup cap (``--subgroup-cap``)."""
    return census(p, beta, cap).types.get((partition(alpha), partition(gamma)), 0)


def hall_count_by_tableau(p: int, beta, cap: int | None = None) -> dict[KleinTableau, int]:
    """Subgroup counts keyed by the Klein tableau of the embedding;
    ``cap`` is the subgroup cap (``--subgroup-cap``)."""
    return dict(census(p, beta, cap).tableaux)


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


def _module_maps(E: Embedding, F: Embedding, cap: int | None) -> Iterator[tuple]:
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
    limit = general_cap(cap)
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


def _flagged_maps(
    E: Embedding, F: Embedding, cap: int | None
) -> Iterator[tuple[bool, list[int]]]:
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

    for idx, images in _module_maps(E, F, cap):
        yield full_rank(idx), images


def hom_count(E: Embedding, F: Embedding, cap: int | None = None) -> int:
    """Number of morphisms (A_E <= B_E) -> (A_F <= B_F): module maps
    B_E -> B_F carrying A_E into A_F."""
    return sum(1 for _ in _module_maps(E, F, cap))


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


def end_aut_counts(E: Embedding, cap: int | None = None) -> tuple[int, int]:
    """|End E| and |Aut E| from one walk over the endomorphisms of E:
    module maps of the ambient carrying the subgroup into itself, and
    those of them invertible mod p."""
    end = aut = 0
    for invertible, _ in _flagged_maps(E, E, cap):
        end += 1
        aut += invertible
    return end, aut


def aut_count(E: Embedding, cap: int | None = None) -> int:
    """Number of automorphisms of the embedding: invertible module maps
    of the ambient fixing the subgroup setwise."""
    return end_aut_counts(E, cap)[1]


def aut_count_module(p: int, beta, cap: int | None = None) -> int:
    """Number of module automorphisms of M(beta)."""
    amb = AmbientModule.get(p, beta, cap)
    return aut_count(Embedding(amb, gens=()), cap)


def orbit_check(E: Embedding, cap: int | None = None) -> bool:
    """Compare the orbit of A under ambient automorphisms, counted
    directly, with the quotient of the two brute-force group orders."""
    amb = E.ambient
    whole = Embedding(amb, subgroup=amb.all_elements())
    autB, orbit = 0, set()
    for invertible, images in _flagged_maps(E, whole, cap):
        if invertible:
            autB += 1
            orbit.add(span(amb, images))
    autE = aut_count(E, cap)
    return autB % autE == 0 and len(orbit) == autB // autE


def adjointness_check(E: Embedding, F: Embedding, s: int) -> bool:
    """Hom(E reduced s times, F) and Hom(E, F lifted s times) agree in
    size, both counted as kernel orders."""
    return hom_order(reduce(E, s), F) == hom_order(E, lift(F, s))
