import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from hallkit import embeddings as emb
from hallkit import oracle, verify
from hallkit.caps import limits
from hallkit.errors import CapExceeded
from hallkit.partitions import conjugate, contains, partitions_of
from hallkit.qforms import evaluate
from hallkit.hall import hall_polynomial
from hallkit.s2cat import aut_order_module, enumerate_objects
from hallkit.tableaux import enumerate_klein, tableau_type


def test_enumerate_subgroups_counts():
    assert sum(1 for _ in oracle.enumerate_subgroups(2, (1, 1))) == 5
    assert sum(1 for _ in oracle.enumerate_subgroups(2, (1,))) == 2
    assert sum(1 for _ in oracle.enumerate_subgroups(2, (2,))) == 3
    # Z/p^2 + Z/p has 1 + (p+1) + (p+1) + 1 subgroups
    for p in (2, 3):
        assert sum(1 for _ in oracle.enumerate_subgroups(p, (2, 1))) == 2 * p + 4


def test_enumerate_subgroups_unique_and_closed():
    for p, beta in ((2, (2, 1, 1)), (3, (2, 1, 1)), (5, (2, 1))):
        seen = set()
        a = emb.AmbientModule.get(p, beta)
        for U in oracle.enumerate_subgroups(p, beta):
            assert U not in seen
            seen.add(U)
            assert 0 in U
            assert all(a.add(x, y) in U for x in U for y in U)


PINNED_ENUMERATION_ORDER_DIGEST = "4edbc32130f661a179ab376dbb95169e7c003ef5385a7f03623378c25c82b0a2"


def test_enumerate_subgroups_order_pinned():
    # the census counts pin only which subgroups come out; this pins the
    # order the walk yields them in, for every beta with |beta| <= 6 at
    # p = 2, |beta| <= 4 at p = 3 and |beta| <= 3 at p = 5
    digest = hashlib.sha256()
    for p, max_size in ((2, 6), (3, 4), (5, 3)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                for U in oracle.enumerate_subgroups(p, beta):
                    digest.update(json.dumps([p, list(beta), sorted(U)]).encode() + b"\n")
    assert digest.hexdigest() == PINNED_ENUMERATION_ORDER_DIGEST


def test_subgroup_cap(cold):
    with pytest.raises(CapExceeded):
        list(oracle.enumerate_subgroups(2, (11,)))


def test_subgroup_cap_on_cached_census():
    beta = (3, 2, 1)
    assert oracle.hall_count(2, (2, 1), beta, (2, 1)) == 9  # fills the census cache
    for call in (
        lambda: oracle.hall_count(2, (2, 1), beta, (2, 1)),
        lambda: oracle.hall_census(2, beta),
        lambda: oracle.hall_count_by_tableau(2, beta),
        lambda: oracle.census(2, beta),
    ):
        with limits(subgroup=16), pytest.raises(CapExceeded):
            call()


def test_hall_count_examples():
    assert oracle.hall_count(2, (3, 2, 1), (4, 3, 2), (2, 1)) == 9
    assert oracle.hall_count(2, (1,), (1, 1), (1,)) == 3
    assert oracle.hall_count(2, (3, 1), (3, 1), ()) == 1


def test_hall_count_by_tableau_worked_example():
    by_tab = oracle.hall_count_by_tableau(2, (4, 3, 2))
    wanted = enumerate_klein((3, 2, 1), (4, 3, 2), (2, 1))
    counts = sorted(by_tab.get(t, 0) for t in wanted)
    assert counts == [1, 4, 4]


def test_by_tableau_counts_for_tiny_group():
    by_tab = oracle.hall_count_by_tableau(2, (1,))
    assert sorted(by_tab.values()) == [1, 1]


def test_census_record():
    record = oracle.census(2, (2, 1))
    assert sum(record.types.values()) == sum(record.tableaux.values()) == 8
    assert record.elapsed >= 0.0
    assert oracle.census(2, (2, 1)) is record
    # the cached record cannot be changed through what a caller is given
    tab = next(iter(record.tableaux))
    with pytest.raises(TypeError):
        record.tableaux[tab] = 0
    with pytest.raises(TypeError):
        record.types[((), (2, 1))] = 0
    oracle.hall_count_by_tableau(2, (2, 1))[tab] = 0
    oracle.hall_census(2, (2, 1)).clear()
    record = oracle.census(2, (2, 1))
    assert sum(record.types.values()) == sum(record.tableaux.values()) == 8


def test_census_keeps_one_record(cold):
    # each reader reads a beta's census in a row, so the memo keeps only
    # the record read last: reading a second beta lets the first go
    first = oracle.census(2, (2, 1))
    assert oracle.census(2, (2, 1)) is first
    oracle.census(2, (3, 1))
    info = oracle._census.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 1)
    assert oracle.census(2, (2, 1)) is not first
    assert oracle._census.cache_info().misses == 3


def test_census_types_are_tableau_types():
    # the census reads a subgroup's type off its tableau; check it against
    # the layer orders of the subgroup itself
    for p, max_size in ((2, 6), (3, 4), (5, 3)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                amb = emb.AmbientModule.get(p, beta)
                for U in oracle.enumerate_subgroups(p, beta):
                    E = emb.Embedding(amb, subgroup=U)
                    assert E.subgroup_type() == tableau_type(emb.klein_tableau(E))[0]


def test_census_tree_matches_the_hermite_walk():
    # the census walks the pA-tree and types each subgroup on its parent's
    # tableau; its counts must equal those of the tableaux folded up each
    # subgroup's own p-chain, one subgroup of the Hermite walk at a time,
    # in a fresh ambient
    for p, max_size in ((2, 7), (3, 5)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                amb = emb.AmbientModule(p, beta)
                want = Counter(
                    emb.klein_tableau(emb.Embedding(amb, subgroup=U))
                    for U in oracle.enumerate_subgroups(p, beta)
                )
                assert dict(oracle.census(p, beta).tableaux) == want, (p, beta)


def _dim(order, p):
    """log_p of a power of p."""
    d = 0
    while p**d < order:
        d += 1
    return d


def _subspaces(k, j, p):
    """The Gaussian binomial [k choose j]_p: the j-dimensional subspaces of F_p^k."""
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def test_census_tree_fibres(monkeypatch, cold):
    # the fibre {A : pA = C} has sum_j [k choose j]_p p^{u(k-j)} subgroups,
    # u = dim C/pC and k = dim(p^{-1}C / C) - u, when C <= pB, and none
    # otherwise; the tree gives C exactly the fibre's A other than C.
    # The census meets each child A of C as a yield of its fibre over C:
    # one inside pB as an inner X, and those outside pB as leaf counts, so
    # the spy sums both, in force over the census alone
    children = Counter()
    fibre = oracle._fibre

    def spy(amb, C):
        for X, inner, leaves in fibre(amb, C):
            if inner:
                assert amb.scale(X) == C
                children[C] += 1
            children[C] += sum(count for _, count in leaves)
            yield X, inner, leaves

    inner = 0
    for p, max_size in ((2, 6), (3, 4)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                children.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_fibre", spy)
                    oracle.census(p, beta)
                amb = emb.AmbientModule.get(p, beta)
                subgroups = list(oracle.enumerate_subgroups(p, beta))
                fibres = Counter(amb.scale(A) for A in subgroups)
                for C in subgroups:
                    pC = amb.scale(C)
                    want = 0
                    if C <= amb.p_power_set(1):
                        inner += 1
                        u = _dim(len(C) // len(pC), p)
                        k = _dim(len(emb.preimage(amb, C)) // len(C), p) - u
                        want = sum(_subspaces(k, j, p) * p ** (u * (k - j)) for j in range(k + 1))
                    assert fibres[C] == want, (p, beta, sorted(C))
                    assert children[C] == want - (C == pC), (p, beta, sorted(C))
    assert inner == 157


def test_census_links_each_key_once(monkeypatch, cold):
    # a child A of C outside pB is a leaf: it gets no call of its own.
    # The children with A & pB = X share their entry-2 level, whose body
    # runs once per key (X, pC, type(B/C)) of a census, and the census
    # reads the type of B/A once per key (|A|, X); ``_link``'s own type
    # reads pass no order and are not counted
    entered, levels, types = [], Counter(), Counter()
    step, link, quotient = oracle._count_subtree, emb._link, emb.quotient_type

    def count_subtree(amb, C, *args):
        entered.append(C)
        step(amb, C, *args)

    def counted_link(amb, ApB, pC, g1, g2):
        levels[ApB, pC, g1] += 1
        return link(amb, ApB, pC, g1, g2)

    def counted_type(amb, ApB, order=None):
        if order is not None:
            types[order, ApB] += 1
        return quotient(amb, ApB, order)

    monkeypatch.setattr(oracle, "_count_subtree", count_subtree)
    monkeypatch.setattr(emb, "_link", counted_link)
    monkeypatch.setattr(emb, "quotient_type", counted_type)
    nodes = links = typed = subgroups = 0
    for n in range(8):
        for beta in partitions_of(n):
            if len(beta) > 5:
                continue
            entered.clear()
            levels.clear()
            types.clear()
            oracle.census(2, beta)
            pB = emb.AmbientModule.get(2, beta).p_power_set(1)
            inner = [U for U in oracle.enumerate_subgroups(2, beta) if U <= pB]
            assert sorted(map(sorted, entered)) == sorted(map(sorted, inner)), beta
            assert set(levels.values()) <= {1} and set(types.values()) <= {1}, beta
            nodes, links, typed = nodes + len(entered), links + len(levels), typed + len(types)
            subgroups += sum(oracle.census(2, beta).tableaux.values())
    # the work of the benchmark's census pass: 272 nodes, 393 level bodies
    # and 649 types for its 6,590 subgroups
    assert (nodes, links, typed, subgroups) == (272, 393, 649, 6590)


def test_tableau_folds_share_one_step(monkeypatch, cold):
    # the fold of an embedding takes one step per link of its p-chain, and
    # every tableau of a census but the zero subgroup's comes out of a step
    out = []
    step = emb._on_top

    def counted(*args):
        out.append(step(*args))
        return out[-1]

    monkeypatch.setattr(emb, "_on_top", counted)
    monkeypatch.setattr(oracle, "_on_top", counted)
    E = emb.random_embedding(3, (4, 2, 1), 2, seed=5)
    assert emb.klein_tableau(E) == out[-1] and len(out) == E.exponent > 1
    out.clear()
    tableaux = oracle.census(2, (3, 2, 1)).tableaux
    zero = emb.klein_tableau(emb.Embedding(emb.AmbientModule.get(2, (3, 2, 1)), gens=()))
    assert set(tableaux) - set(out) == {zero} and set(out) <= set(tableaux)


def test_census_tree_is_walked_lazily(cold):
    # the root of (1^7) at p = 2 has 29,211 children, which take about
    # 40 MB as element sets; the walk holds one path of the tree at a time
    tracemalloc.start()
    try:
        oracle.census(2, (1,) * 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_census_consistency():
    for beta in [(2, 1), (1, 1, 1), (3, 1)]:
        census = oracle.hall_census(2, beta)
        total = sum(1 for _ in oracle.enumerate_subgroups(2, beta))
        assert sum(census.values()) == total
        by_tab = oracle.hall_count_by_tableau(2, beta)
        assert sum(by_tab.values()) == total


def test_census_duality():
    for n in range(6):
        for beta in partitions_of(n):
            census = oracle.hall_census(2, beta)
            for (alpha, gamma), count in census.items():
                assert census.get((gamma, alpha), 0) == count


def _all_subspaces(n, p):
    """Every subspace of F_p^n as a frozenset of coordinate tuples, grown
    from 0 one vector at a time."""
    vectors = list(product(range(p), repeat=n))
    zero = frozenset({(0,) * n})
    seen, frontier = {zero}, [zero]
    while frontier:
        S = frontier.pop()
        for v in vectors:
            if v not in S:
                T = frozenset(
                    tuple((a + c * b) % p for a, b in zip(s, v)) for s in S for c in range(p)
                )
                if T not in seen:
                    seen.add(T)
                    frontier.append(T)
    return seen


def test_leaf_count_matches_subspace_count():
    # N(n, a, k, m, d) counts the d-subspaces V of F_p^n with V & Q = 0 and
    # V + K = F_p^n, dim Q = a, dim K = k and dim(Q & K) = m: count them
    # for Q spanned by the first a unit vectors and K by the first m and
    # the next k - m after Q's, on every configuration and every d
    configurations = 0
    for p, max_n in ((2, 4), (3, 3)):
        for n in range(max_n + 1):
            subspaces = _all_subspaces(n, p)
            unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]

            def spanned(vectors):
                return next(S for S in subspaces if set(vectors) <= S and len(S) == p ** len(vectors))

            for a in range(n + 1):
                for m in range(a + 1):
                    for k in range(m, n - a + m + 1):
                        Q = spanned(unit[:a])
                        K = spanned(unit[:m] + unit[a : a + k - m])
                        found = Counter(
                            len(V)
                            for V in subspaces
                            if len(V & Q) == 1 and len(V) * len(K) == p**n * len(V & K)
                        )
                        for d in range(n + 1):
                            configurations += 1
                            want = found[p**d]
                            assert oracle._leaf_count(p, n, a, k, m, d) == want, (p, n, a, k, m, d)
    assert configurations == 413


def _three_subscripts(tab) -> bool:
    """An e >= 3 tableau with a level of three distinct subscripts."""
    return tab.e >= 3 and any(len({r for _, subs in level for r in subs}) >= 3 for level in tab.levels)


def test_census_reaches_ten_boxes():
    # at p = 2 no beta with |beta| <= 9 holds a tableau with e >= 3 and a
    # level of three distinct subscripts; over the |beta| = 10 betas that
    # do, every type pair's per-tableau census equals its breakdown at q = 2
    targets = []
    for beta in partitions_of(10):
        census = oracle.census(2, beta)
        if not any(map(_three_subscripts, census.tableaux)):
            continue
        targets.append(beta)
        seen = 0
        for alpha, gamma in census.types:
            for tab, poly in hall_polynomial(alpha, beta, gamma).per_tableau:
                assert evaluate(poly, 2) == census.tableaux.get(tab, 0), (beta, tab)
                seen += 1
        assert seen == len(census.tableaux), beta
    assert targets == [(5, 3, 2), (4, 4, 2), (4, 3, 3)]


def test_hom_and_aut_counts():
    T42 = emb.bipicket_embedding(2, 4, 2)
    assert oracle.hom_count(T42, T42) == 512
    assert oracle.aut_count(emb.bipicket_embedding(2, 3, 1)) == 16
    # morphisms into an empty picket are module maps of the quotient by A
    E = emb.direct_sum(T42, emb.picket_embedding(2, 1, 3))
    gamma0 = emb.quotient_type(E.ambient, E.subgroup)
    for m in (1, 2, 3):
        F = emb.picket_embedding(2, 0, m)
        expect = 2 ** sum(min(part, m) for part in gamma0)
        assert oracle.hom_count(E, F) == expect
    # with no generators every module map counts: p^{sum min(b_i, c_j)}
    cases = [(2, (3, 1), (2, 2)), (3, (2, 1), (2, 1)), (3, (1, 1, 1), (2,)), (5, (2,), (1, 1))]
    for p, beta, gamma in cases:
        E = emb.Embedding.from_coords(p, beta, [])
        F = emb.Embedding.from_coords(p, gamma, [])
        assert oracle.hom_count(E, F) == p ** sum(min(b, c) for b in beta for c in gamma)


def _derived_pool(p, max_size, rng):
    """For each beta with |beta| <= max_size: an embedding with 0-2
    random generators, its lift and its reduction."""
    pool = []
    for n in range(max_size + 1):
        for beta in partitions_of(n):
            E = emb.random_embedding(p, beta, rng.randrange(3), seed=rng.randrange(1 << 20))
            pool += [E, emb.lift(E), emb.reduce(E)]
    return pool


def test_hom_order_matches_walk():
    # every pair whose walk has at most 2^10 maps, with generated,
    # generator-free, lifted and reduced embeddings on both sides
    rng = random.Random(22)
    pairs = 0
    for p, max_e in ((2, 6), (3, 4), (5, 2)):
        sources, targets = _derived_pool(p, max_e, rng), _derived_pool(p, 3, rng)
        for E, F in product(sources, targets):
            if p ** sum(min(b, c) for b in E.beta for c in F.beta) <= 1 << 10:
                assert oracle.hom_order(E, F) == oracle.hom_count(E, F), (E, F)
                pairs += 1
    assert pairs == 2745


def test_hom_counts_need_one_prime():
    E, F = emb.picket_embedding(2, 1, 2), emb.picket_embedding(3, 1, 2)
    for count in (oracle.hom_count, oracle.hom_order):
        with pytest.raises(ValueError, match="embeddings must share the prime"):
            count(E, F)
    with pytest.raises(ValueError, match="embeddings must share the prime"):
        oracle.adjointness_check(E, F, 1)


def test_aut_count_module_reads_its_cap(monkeypatch, cold):
    # a value in force overrides the environment
    monkeypatch.setenv("HALLKIT_CAP", "4")
    with limits(general=64):
        assert oracle.aut_count_module(2, (2, 1)) == 8
    with pytest.raises(CapExceeded):
        oracle.aut_count_module(2, (2, 1))


def test_aut_count_module():
    assert oracle.aut_count_module(2, (2, 1)) == 8
    assert oracle.aut_count_module(2, (1, 1)) == 6
    assert oracle.aut_count_module(3, (1, 1)) == 48
    # every beta whose End(M(beta)) fits the brute-force cap
    for p in (2, 3):
        for n in range(1, 15):
            for beta in partitions_of(n):
                if p ** sum(min(b, c) for b in beta for c in beta) <= verify.BRUTE_CAP:
                    want = evaluate(aut_order_module(beta), p)
                    assert oracle.aut_count_module(p, beta) == want, (p, beta)


def _product_walk(E, F):
    """The module-map walk as first written: every idx of
    itertools.product, each generator image summed from scratch."""
    ambE, ambF = E.ambient, F.ambient
    allowed = [ambF.killed_by(b) for b in ambE.beta]
    tables = [
        [[ambF.smul(c, y) for y in block] for c, block in zip(ambE.coords(g), allowed)]
        for g in E.generators()
    ]
    for idx in product(*[range(len(block)) for block in allowed]):
        images = []
        for table in tables:
            img = 0
            for column, j in zip(table, idx):
                img = ambF.add(img, column[j])
            if img not in F.subgroup:
                break
            images.append(img)
        else:
            yield idx, images


def test_module_map_walk_matches_product_walk():
    # every ordered pair of small embeddings, among them the empty
    # ambient, a generator-free one and subgroup-defined ones
    rng = random.Random(8)
    pairs = 0
    for p in (2, 3):
        pool = [emb.empty_embedding(p), emb.Embedding.from_coords(p, (2, 1), [])]
        pool += [emb.object_embedding(obj, p) for obj in enumerate_objects(3)]
        for n in range(1, 4):
            for beta in partitions_of(n):
                E = emb.random_embedding(p, beta, rng.randrange(1, 4), seed=rng.randrange(1 << 20))
                pool += [E, emb.lift(E), emb.reduce(E)]
        for E, F in product(pool, repeat=2):
            if p ** sum(min(b, c) for b in E.beta for c in F.beta) <= 1 << 10:
                assert list(oracle._module_maps(E, F)) == list(_product_walk(E, F))
                pairs += 1
    assert pairs == 3479


def _full_rank_mod_p(rows, p):
    """Gaussian elimination over the whole residue matrix."""
    M, n = [list(r) for r in rows], len(rows)
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


def _full_rank_maps(E, F):
    """Generator images of the maps of E -> F whose whole residue matrix
    mod p is invertible."""
    amb, p = E.ambient, E.p
    residues = [[tuple(c % p for c in amb.coords(y)) for y in amb.killed_by(b)] for b in amb.beta]
    for idx, images in oracle._module_maps(E, F):
        if _full_rank_mod_p([block[j] for block, j in zip(residues, idx)], p):
            yield images


def test_block_rank_test_matches_full_elimination(cold):
    # every object of size <= 5 whose End(B) has at most 2^12 maps
    budget = 1 << 12
    for p, want_checked in ((2, 77), (3, 38)):
        checked, modules = 0, set()
        for obj in enumerate_objects(5):
            E = emb.object_embedding(obj, p)
            with limits(general=budget):
                try:
                    end, aut = oracle.end_aut_counts(E)
                except CapExceeded:
                    continue
                assert aut == oracle.aut_count(E) and end == oracle.hom_count(E, E), (p, obj)
            checked += 1
            want = sum(1 for _ in _full_rank_maps(E, E))
            assert aut == want, (p, obj)
            amb = E.ambient
            whole = emb.Embedding(amb, subgroup=amb.all_elements())
            aut_b, orbit = 0, set()
            for images in _full_rank_maps(E, whole):
                aut_b += 1
                orbit.add(emb.span(amb, images))
            assert oracle.orbit_check(E) == (aut_b % want == 0 and len(orbit) == aut_b // want)
            if E.beta not in modules:
                modules.add(E.beta)
                zero = emb.Embedding(amb, gens=())
                module_aut = sum(1 for _ in _full_rank_maps(zero, zero))
                assert oracle.aut_count_module(p, E.beta) == module_aut, (p, E.beta)
        assert checked == want_checked


def test_hom_cap(cold):
    # ambient fits the cap but the hom space does not
    big = emb.Embedding.from_coords(2, (2,) * 8, [])
    with pytest.raises(CapExceeded):
        oracle.hom_count(big, big)


def test_orbit_checks():
    assert oracle.orbit_check(emb.bipicket_embedding(2, 4, 2))
    zero = emb.Embedding.from_coords(2, (2, 1), [])
    assert oracle.orbit_check(zero)
    rng = random.Random(3)
    for _ in range(5):
        beta = random.Random(rng.random()).choice([(2, 1), (2, 2), (3, 1), (1, 1, 1)])
        E = emb.random_embedding(2, beta, 2, seed=rng.randrange(1 << 20))
        assert oracle.orbit_check(E)
    for beta in [(2, 1), (1, 1), (3, 1), (2, 2)]:
        E = emb.random_embedding(3, beta, 1, seed=rng.randrange(1 << 20))
        assert oracle.orbit_check(E)


def test_adjointness_checks():
    E = emb.picket_embedding(2, 2, 4)
    F = emb.picket_embedding(2, 1, 3)
    assert oracle.adjointness_check(E, F, 0)
    assert oracle.adjointness_check(E, F, 1)
    rng = random.Random(9)
    for _ in range(5):
        E = emb.random_embedding(2, (3, 2), 2, seed=rng.randrange(1 << 20))
        F = emb.picket_embedding(2, rng.randrange(3), rng.randrange(1, 4))
        assert oracle.adjointness_check(E, F, rng.randrange(3))


def test_census_checks_the_pricing_past_two():
    # a fault that vanishes at q = 2 escapes every p = 2 census; at p = 3,
    # over the |beta| = 8 betas that hold an e >= 3 tableau of a type
    # (alpha, beta, alpha), every per-tableau polynomial of every type pair
    # equals its census count at q = 3
    targets, seen = [], 0
    with limits(subgroup=3**8):
        for beta in partitions_of(8):
            census = oracle.census(3, beta)
            if not any(tab.e >= 3 and tableau_type(tab)[0] == tab.base for tab in census.tableaux):
                continue
            targets.append(beta)
            for alpha, gamma in census.types:
                for tab, poly in hall_polynomial(alpha, beta, gamma).per_tableau:
                    assert evaluate(poly, 3) == census.tableaux.get(tab, 0), (beta, tab)
                    seen += 1
    assert len(targets) == 13 and seen == 450


def test_counts_match_polynomials_small():
    for p, max_beta in ((2, 5), (11, 2), (13, 2)):
        for n in range(max_beta + 1):
            for beta in partitions_of(n):
                census = oracle.hall_census(p, beta)
                for k in range(n + 1):
                    for alpha in partitions_of(k):
                        for gamma in partitions_of(n - k):
                            bd = hall_polynomial(alpha, beta, gamma)
                            assert evaluate(bd.total, p) == census.get((alpha, gamma), 0)


def _q_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _birkhoff_count(q: int, alpha, beta) -> int:
    """Number of type-alpha subgroups of M(beta) at q = p (Birkhoff 1935)."""
    if not contains(beta, alpha):
        return 0
    a, b = conjugate(alpha), conjugate(beta)
    a += (0,) * (len(b) + 1 - len(a))
    count = 1
    for i, bi in enumerate(b):
        count *= q ** (a[i + 1] * (bi - a[i])) * _q_binomial(bi - a[i + 1], a[i] - a[i + 1], q)
    return count


def test_census_matches_birkhoff_count():
    for p, max_beta in ((2, 7), (3, 5), (5, 3)):
        for n in range(max_beta + 1):
            for beta in partitions_of(n):
                by_alpha: dict = {}
                for (alpha, _), count in oracle.hall_census(p, beta).items():
                    by_alpha[alpha] = by_alpha.get(alpha, 0) + count
                for k in range(n + 1):
                    for alpha in partitions_of(k):
                        want = _birkhoff_count(p, alpha, beta)
                        assert by_alpha.get(alpha, 0) == want, (p, alpha, beta)


def test_type_memo_one_miss_per_order_vector(monkeypatch, cold):
    memo = emb._layer_type
    keys = set()

    def spy(orders, p):
        keys.add((orders, p))
        return memo(orders, p)

    monkeypatch.setattr(emb, "_layer_type", spy)
    for n in range(8):
        for beta in partitions_of(n):
            oracle.hall_census(2, beta)
    assert memo.cache_info().misses == len(keys)
    for key in keys:
        assert memo(*key) == memo.__wrapped__(*key)


PINNED_CENSUS_DIGEST = "865d9ee8fc460b3bf8385291f32b9bb8f3af5433d2a07e3bc3e440cf523d18b5"


def _census_outputs() -> str:
    """Sorted JSON lines of both censuses of every beta with |beta| <= 7
    at p = 2 and |beta| <= 5 at p = 3."""
    lines = []
    for p, max_size in ((2, 7), (3, 5)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                for (a, g), c in oracle.hall_census(p, beta).items():
                    lines.append(json.dumps([p, list(beta), "types", [list(a), list(g)], c]))
                for t, c in oracle.hall_count_by_tableau(p, beta).items():
                    lines.append(json.dumps([p, list(beta), "tableau", t.to_json(), c], sort_keys=True))
    return "\n".join(sorted(lines))


def test_census_outputs_pinned():
    # Recorded before the type memo and the direct construction of census
    # tableaux; any change to a subgroup's type pair or tableau shows here.
    digest = hashlib.sha256(_census_outputs().encode()).hexdigest()
    assert digest == PINNED_CENSUS_DIGEST
