import gc
import hashlib
import json
import random
import re
import time
from collections import Counter
from itertools import count, product

import pytest

from hallkit import embeddings as emb
from hallkit import oracle, verify
from hallkit.caps import general_cap, limits
from hallkit.errors import CapExceeded, EntryTooLarge
from hallkit.partitions import partitions_of
from hallkit.s2cat import (
    Picket,
    S2Object,
    enumerate_objects,
    object_of_tableau,
    tableau_of_object,
)
from hallkit.tableaux import (
    KleinTableau,
    direct_sum_tableau,
    enumerate_klein_entries2,
    restrict,
)


def amb(p, beta):
    return emb.AmbientModule.get(p, beta)


def random_subgroup(ambient, rng, k=2):
    gens = [
        ambient.pack(tuple(rng.randrange(m) for m in ambient.mods)) for _ in range(k)
    ]
    return emb.span(ambient, gens)


def union_of_cosets(ambient, H, K):
    """Reference for H + K: the union of the H-cosets h + k over k in K."""
    if len(H) < len(K):
        H, K = K, H
    out = set(H)
    for k in K:
        if k not in out:
            out.update(ambient.add(h, k) for h in H)
    return frozenset(out)


def test_span_examples():
    a = amb(2, (3,))
    assert emb.span(a, ()) == frozenset({0})
    # (p^{m-ell}) in Z/p^m is cyclic of order p^ell
    for ell in range(4):
        E = emb.picket_embedding(2, ell, 3)
        assert len(E.subgroup) == 2**ell
    # the diagonal generator of a bipicket spans a cyclic group of order p^2
    for p in (2, 3):
        E = emb.bipicket_embedding(p, 4, 2)
        assert len(E.subgroup) == p**2


def test_packed_arithmetic_matches_coordinates():
    # every prime; at p = 2 both equal parts (no bias) and unequal parts,
    # whose shorter fields need the bias to raise their guard bits
    cases = [(2, (3, 2, 1)), (2, (2, 2)), (3, (2, 1, 1)), (5, (2, 1)), (7, (2, 1)), (11, (1, 1))]
    for p, beta in cases:
        a = amb(p, beta)
        vectors = list(product(*(range(m) for m in a.mods)))
        assert all(a.coords(a.pack(c)) == c for c in vectors)
        # packed order is the lexicographic order of reversed coordinates
        elems = a.all_elements()
        assert [a.coords(x) for x in elems] == sorted(vectors, key=lambda c: c[::-1])
        for x in elems:
            cx = a.coords(x)
            assert a.coords(a.pmul(x)) == tuple((p * u) % m for u, m in zip(cx, a.mods))
            for k in (7, -3):
                assert a.coords(a.smul(k, x)) == tuple((k * u) % m for u, m in zip(cx, a.mods))
            for y in elems:
                want = tuple((u + v) % m for u, v, m in zip(cx, a.coords(y), a.mods))
                assert a.coords(a.add(x, y)) == want


def test_ambient_rejects_non_primes():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            emb.AmbientModule(p, (1,))


def test_subgroup_identities():
    rng = random.Random(42)
    for p, beta in [(2, (3, 2, 1)), (3, (2, 2, 1)), (2, (4, 1))]:
        a = amb(p, beta)
        soc = frozenset(a.killed_by(1))
        for _ in range(20):
            A = random_subgroup(a, rng)
            pA = emb.scale(a, A)
            assert emb.preimage(a, pA) == union_of_cosets(a, A, soc)
            assert emb.scale(a, emb.preimage(a, pA)) == pA
            assert emb.scale(a, frozenset({0})) == frozenset({0})


def test_span_from_a_base_matches_union_of_cosets():
    rng = random.Random(17)
    for p, beta in [(2, (3, 2, 1)), (2, (4, 2)), (3, (2, 2, 1)), (3, (3, 1))]:
        a = amb(p, beta)
        for _ in range(25):
            H = random_subgroup(a, rng, k=rng.randrange(3))
            K = random_subgroup(a, rng, k=rng.randrange(3))
            assert emb.span(a, K, H) == union_of_cosets(a, H, K)
            # from the zero base, span is the plain closure
            assert emb.span(a, K) == K


def test_preimage_matches_definition():
    # p^{-1}A is built from A & pB; the reference scans B for {b : pb in A}
    for p, beta in [(2, (3, 2, 1)), (3, (2, 1, 1)), (5, (2, 1))]:
        a = amb(p, beta)
        for A in oracle.enumerate_subgroups(p, beta):
            want = frozenset(x for x in a.all_elements() if a.pmul(x) in A)
            assert emb.preimage(a, A) == want


def test_battery_builds_each_preimage_once_and_no_level_zero_basis(monkeypatch, cold):
    # over 100 seeded draws of the theorem2 battery, a lift whose radical
    # the burst already lifted is a memo hit, and truncate(E, 0) builds no
    # greedy basis; without the memo each of the 404 lifts is a build, and
    # with a basis at ell = 0 there are 527 bases
    calls = []

    def counted(*args):
        calls.append(args)
        return greedy(*args)

    greedy = emb._greedy_basis
    monkeypatch.setattr(emb, "_greedy_basis", counted)
    rng = random.Random(5)
    betas = [beta for n in range(1, 9) for beta in partitions_of(n)]
    for i in range(100):
        beta = betas[rng.randrange(len(betas))]
        E = emb.random_embedding((2, 3)[i % 2], beta, rng.randrange(1, 4), rng.randrange(1 << 30))
        assert verify._embedding_battery(E, rng) == []
    info = emb._preimage.cache_info()
    assert (info.hits + info.misses, info.misses, len(calls)) == (404, 180, 428)


def test_level_zero_truncation_is_the_zero_subgroup_of_the_quotient(monkeypatch):
    # p^0 A = A, so E|^0 is 0 <= B/A with one zero generator per
    # generator of A, built with no greedy basis
    monkeypatch.setattr(emb, "_greedy_basis", lambda *args: pytest.fail("basis built"))
    rng = random.Random(8)
    for p, beta in [(2, (3, 2, 1)), (3, (2, 2, 1)), (5, (2, 1)), (2, (1, 1, 1))]:
        for k in (1, 2, 3):
            E = emb.random_embedding(p, beta, k, seed=rng.randrange(1 << 30))
            if E.exponent == 0:
                continue
            gamma = emb.quotient_type(E.ambient, E.subgroup)
            want = {"p": p, "beta": list(gamma), "gens": [[0] * len(gamma)] * k}
            assert emb.truncate(E, 0).to_json() == want


def test_preimage_memo_stays_bounded(cold):
    # lifting 50 distinct subgroups leaves at most maxsize preimages held
    rng = random.Random(11)
    a = amb(3, (3, 2, 1))
    seen = set()
    while len(seen) < 50:
        A = random_subgroup(a, rng, k=rng.randrange(1, 3))
        if A not in seen:
            seen.add(A)
            emb.lift(emb.Embedding(a, subgroup=A))
            info = emb._preimage.cache_info()
            assert info.currsize <= info.maxsize
    assert emb._preimage.cache_info().currsize == emb._preimage.cache_info().maxsize


def test_module_and_quotient_types():
    a = amb(2, (4, 2))
    whole = frozenset(a.all_elements())
    assert emb.module_type(a, whole) == (4, 2)
    T = emb.bipicket_embedding(2, 4, 2)
    assert emb.module_type(T.ambient, T.subgroup) == (2,)
    assert emb.quotient_type(T.ambient, T.subgroup) == (3, 1)
    pA = emb.scale(T.ambient, T.subgroup)
    assert emb.quotient_type(T.ambient, pA) == (3, 2)


MEMO_CASES = [(2, (3, 2, 1)), (3, (2, 2, 1)), (5, (2, 1)), (7, (2, 1))]


def times_p(ambient, x):
    """Reference for px: p * u mod p^{beta_i} on each coordinate."""
    return ambient.pack([ambient.p * u for u in ambient.coords(x)])


def test_pmul_memo_matches_coordinates():
    rng = random.Random(5)
    for p, beta in MEMO_CASES:
        # pmul on a cold memo, then on a warm one
        a = emb.AmbientModule(p, beta)
        for _ in range(2):
            for x in a.all_elements():
                assert a.pmul(x) == times_p(a, x)
        # scale on a cold memo, then on a warm one
        a = emb.AmbientModule(p, beta)
        for _ in range(10):
            A = random_subgroup(a, rng, k=rng.randrange(3))
            want = frozenset(times_p(a, x) for x in A)
            assert emb.scale(a, A) == want
            assert emb.scale(a, A) == want


def canonical_level(ambient, A):
    """The r with A = p^r B, or None."""
    return next((r for r in range(ambient.beta[0] + 1) if A == ambient.p_power_set(r)), None)


def test_scale_memoises_exactly_the_subgroup():
    # a subgroup other than the p^r B memoises exactly its elements; a
    # p^r B (the k = 0 draw {0} is p^{beta_1} B) leaves the memo empty
    # and returns the cached p^{r+1} B
    rng = random.Random(6)
    for p, beta in MEMO_CASES:
        for k in range(3):
            a = emb.AmbientModule(p, beta)
            A = random_subgroup(a, rng, k=k)
            pA = emb.scale(a, A)
            r = canonical_level(a, A)
            if r is None:
                assert a._times_p.keys() == A
                assert all(a._times_p[x] == times_p(a, x) for x in A)
            else:
                assert not a._times_p
                assert pA is a.p_power_set(r + 1)


def test_scale_is_exact_on_every_subgroup():
    # every subgroup, the p^r B among them and the others of their
    # orders, maps to {px : x in A}
    for p, beta in [(2, (3, 2, 1)), (3, (2, 1, 1)), (5, (2, 1))]:
        a = amb(p, beta)
        for A in oracle.enumerate_subgroups(p, beta):
            assert emb.scale(a, A) == frozenset(times_p(a, x) for x in A)
            r = canonical_level(a, A)
            if r is not None:
                assert emb.scale(a, A) is a.p_power_set(r + 1)


def test_divp_divides_each_coordinate_on_pB():
    for p in (2, 3, 5, 7):
        for beta in [(3, 1, 1), (2, 2, 1), (4, 2)]:
            a = amb(p, beta)
            for y in a.p_power_set(1):
                x = a.divp(y)
                assert a.coords(x) == tuple(u // p for u in a.coords(y))
                assert a.pmul(x) == y


def test_quotient_type_builds_no_p0_set():
    def old_quotient_type(ambient, X):
        # |p^i B| / |p^i B & X| from i = 0, with p^i B read off coordinates
        elems, p, sizes = ambient.all_elements(), ambient.p, []
        for i in count():
            piB = frozenset(
                x
                for x in elems
                if all(u % p ** min(i, b) == 0 for u, b in zip(ambient.coords(x), ambient.beta))
            )
            sizes.append(len(piB) // len(piB & X))
            if sizes[-1] == 1:
                return emb._layer_type(tuple(sizes), p)

    rng = random.Random(7)
    for p, beta in [(2, (3, 2, 1)), (2, (4, 4)), (3, (2, 2, 1)), (5, (2, 1)), (7, (1, 1))]:
        a = emb.AmbientModule(p, beta)
        assert emb.quotient_type(a, frozenset({0})) == beta
        assert emb.quotient_type(a, frozenset(a.all_elements())) == ()
        for _ in range(15):
            X = random_subgroup(a, rng, k=rng.randrange(4))
            assert emb.quotient_type(a, X) == old_quotient_type(a, X)
        assert 0 not in a._powers


def _functor_readings(p, beta, k, seed, clear=None):
    """Klein and LR tableaux, every truncation and the lift of a seeded
    embedding, each read from a fresh copy of it; with clear, after
    calling it, which drops every interned ambient with its x -> px memo."""

    def read(f):
        if clear:
            clear()
        return f(emb.random_embedding(p, beta, k, seed=seed))

    e = emb.random_embedding(p, beta, k, seed=seed).exponent
    return [
        read(emb.klein_tableau),
        read(emb.lr_tableau),
        *(read(lambda E, ell=ell: emb.truncate(E, ell).to_json()) for ell in range(e + 1)),
        read(lambda E: emb.lift(E).subgroup),
    ]


def test_pmul_memo_is_invisible(cold):
    rng = random.Random(8)
    for p, max_size in ((2, 6), (3, 4), (5, 3)):
        for n in range(1, max_size + 1):
            for beta in partitions_of(n):
                k, seed = rng.randrange(1, 4), rng.randrange(1 << 30)
                from_cold = _functor_readings(p, beta, k, seed, clear=cold)
                assert _functor_readings(p, beta, k, seed) == from_cold, (p, beta)


def test_types_match_torsion_counts():
    # Independent of the layer orders: a subgroup U of type alpha has
    # |U & B[p^k]| = p^{sum min(alpha_i, k)}, and a quotient B/U of type
    # gamma has |p^{-k}U / U| = p^{sum min(gamma_i, k)}.  Up to k = n + 1
    # these counts determine both partitions.
    for p, max_size in ((2, 6), (3, 4), (5, 3)):
        for n in range(max_size + 1):
            for beta in partitions_of(n):
                a = amb(p, beta)
                torsion = [frozenset(a.killed_by(k)) for k in range(n + 2)]
                for U in oracle.enumerate_subgroups(p, beta):
                    alpha = emb.Embedding(a, subgroup=U).subgroup_type()
                    gamma = emb.quotient_type(a, U)
                    V = U
                    for k in range(1, n + 2):
                        V = emb.preimage(a, V)
                        assert len(U & torsion[k]) == p ** sum(min(x, k) for x in alpha)
                        assert len(V) == len(U) * p ** sum(min(x, k) for x in gamma)


def test_lr_tableau_examples():
    T = emb.bipicket_embedding(2, 4, 2)
    assert emb.lr_tableau(T).gammas == ((3, 1), (3, 2), (4, 2))
    P = emb.picket_embedding(3, 2, 5)
    assert emb.lr_tableau(P).gammas == ((3,), (4,), (5,))
    Z = emb.Embedding.from_coords(2, (3, 1), [])
    assert emb.lr_tableau(Z).gammas == ((3, 1),)


def test_klein_tableau_examples():
    T = emb.bipicket_embedding(2, 4, 2)
    assert emb.klein_tableau(T) == KleinTableau.make(
        [(3, 1), (3, 2), (4, 2)], {(2, 4): [2]}
    )
    # pickets: every subscript forced to row - 1
    for p in (2, 3):
        for m in (2, 3, 4):
            P = emb.picket_embedding(p, 2, m)
            assert emb.klein_tableau(P).levels == (((m, (m - 1,)),),)
    S = emb.direct_sum(T, emb.picket_embedding(2, 1, 3))
    assert emb.klein_tableau(S) == KleinTableau.make(
        [(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [2]}
    )


def test_direct_sum_tableau_additivity():
    rng = random.Random(5)
    pieces = [
        emb.bipicket_embedding(2, 4, 2),
        emb.picket_embedding(2, 1, 3),
        emb.picket_embedding(2, 2, 2),
        emb.Embedding.from_coords(2, (3, 2), [(2, 1)]),
    ]
    for _ in range(10):
        E1, E2 = rng.choice(pieces), rng.choice(pieces)
        lhs = emb.klein_tableau(emb.direct_sum(E1, E2))
        rhs = direct_sum_tableau(emb.klein_tableau(E1), emb.klein_tableau(E2))
        assert lhs == rhs


def test_realize_examples():
    tab = KleinTableau.make([(3, 2, 1), (3, 3, 2), (4, 3, 2)], {(2, 4): [2]})
    E = emb.realize(tab, 2)
    assert E.beta == (4, 3, 2)
    assert emb.module_type(E.ambient, E.subgroup) == (2, 1)
    assert emb.klein_tableau(E) == tab
    empty = emb.realize(KleinTableau.make([(4,)]), 3)
    assert empty.subgroup == frozenset({0}) and empty.beta == (4,)
    full = emb.realize(tableau_of_object(S2Object.of(Picket(2, 2))), 2)
    assert len(full.subgroup) == 4  # A = B inside Z/p^2


def test_realize_rejects_large_entries():
    tab = KleinTableau.make([(), (1,), (2,), (3,)], {(2, 2): [1], (3, 3): [2]})
    with pytest.raises(EntryTooLarge):
        emb.realize(tab, 2)


def test_realize_roundtrip_small():
    for p in (2, 3):
        for n in range(6):
            for beta in partitions_of(n):
                for tab in enumerate_klein_entries2(beta):
                    assert emb.klein_tableau(emb.realize(tab, p)) == tab


def picket_klein(ell, m):
    """Klein tableau of a picket of arbitrary depth: a single column whose
    entries >= 2 all carry the forced subscript row - 1."""
    gammas = [(m - ell + i,) for i in range(ell + 1)]
    subs = {(j, m - ell + j): [m - ell + j - 1] for j in range(2, ell + 1)}
    return KleinTableau.make(gammas, subs)


def test_lift_examples():
    P = emb.picket_embedding(2, 2, 5)
    lifted = emb.lift(P, 2)
    assert emb.klein_tableau(lifted) == picket_klein(4, 5)
    # lifting a bipicket past its depth splits off a full picket column
    for p in (2, 3):
        for (m, r, s) in [(4, 2, 2), (4, 1, 1), (5, 2, 3), (5, 3, 4)]:
            assert s > r - 1
            T = emb.bipicket_embedding(p, m, r)
            got = emb.klein_tableau(emb.lift(T, s))
            u = min(1 + s, m)
            want = direct_sum_tableau(picket_klein(u, m), picket_klein(r, r))
            assert got == want
    # within the depth the lift stays a bipicket-shaped embedding
    T = emb.bipicket_embedding(2, 5, 3)
    up1 = emb.lift(T, 1)
    assert emb.module_type(up1.ambient, up1.subgroup) == (3, 1)
    assert emb.reduce(up1, 1).subgroup == T.subgroup


def test_lift_reduce_identities():
    rng = random.Random(11)
    for p, beta in [(2, (3, 2, 1)), (3, (3, 2))]:
        a = amb(p, beta)
        for _ in range(15):
            E = emb.Embedding(a, subgroup=random_subgroup(a, rng))
            up, down = emb.lift(E), emb.reduce(E)
            assert emb.lift(emb.reduce(up)).subgroup == up.subgroup
            assert emb.reduce(emb.lift(down)).subgroup == down.subgroup
            # p p^{-1} A = A cap rad B
            assert emb.scale(a, emb.preimage(a, E.subgroup)) == E.subgroup & a.p_power_set(1)
    with pytest.raises(ValueError):
        emb.reduce(E, -1)


def test_truncate_and_subfactor():
    T = emb.bipicket_embedding(2, 4, 2)
    S = emb.direct_sum(T, emb.picket_embedding(2, 1, 3))
    tab = emb.klein_tableau(S)
    for ell in range(S.exponent + 1):
        cut = emb.truncate(S, ell)
        assert emb.klein_tableau(cut) == restrict(tab, ell, ell)
    assert emb.klein_tableau(emb.subfactor(S, 2, 2)) == restrict(tab, 2, 2)
    assert emb.klein_tableau(emb.subfactor(S, 2, 1)) == restrict(tab, 2, 1)


def table_coords(ambient, typ, X, candidates):
    """Reference for the greedy basis: the rule with the table mapping
    each element s of the span to the k with s - sum k_j y_j in X, grown
    one basis vector at a time by extending each row by k."""
    coords = dict.fromkeys(X, ())
    basis = []
    for m in typ:
        for y in candidates:
            if y in coords:
                continue
            z = y
            for _ in range(m - 1):
                z = ambient.pmul(z)
            if z not in coords and ambient.pmul(z) in X:
                break
        else:
            raise AssertionError("basis extraction failed")
        basis.append(y)
        grown = {}
        for s, c in coords.items():
            for k in range(ambient.p**m):
                grown[s] = c + (k,)
                s = ambient.add(s, y)
        coords = grown
    if len(coords) != len(candidates):
        raise AssertionError("greedy basis does not span the candidates")
    return tuple(basis), coords


def test_truncation_table_resums():
    # the peeled coordinates of every s in B are the reference table's row:
    # s - sum k_j y_j lies in X, and each tuple of prod Z/p^{m_j} names one
    # coset of X, so it is hit exactly |X| times
    rng = random.Random(29)
    for p, beta in [(2, (3, 2, 1)), (2, (4, 2, 2)), (3, (3, 2)), (5, (2, 1))]:
        a = amb(p, beta)
        for _ in range(4):
            E = emb.random_embedding(p, beta, rng.randrange(1, 4), seed=rng.randrange(1 << 30))
            for ell in range(E.exponent):
                X = E.chain()[ell]
                gamma = emb.quotient_type(a, X)
                basis, spans = emb._greedy_basis(a, gamma, X, a.all_elements())
                want_basis, table = table_coords(a, gamma, X, a.all_elements())
                assert basis == want_basis and len(spans) == max(len(gamma), 1)
                hits = Counter()
                for s in a.all_elements():
                    ks = emb._peel(a, gamma, basis, spans, s)
                    assert ks == table[s]
                    back = s
                    for k, y in zip(ks, basis):
                        back = a.add(back, a.smul(-k, y))
                    assert back in X
                    hits[ks] += 1
                assert set(hits) == set(product(*(range(p**m) for m in gamma)))
                assert set(hits.values()) == {len(X)}
                cut = emb.truncate(E, ell)
                want = [cut.ambient.pack(table[g]) for g in E.generators()]
                assert list(cut.generators()) == want


def test_generators_are_the_greedy_basis():
    # subgroup-defined embeddings take the reference greedy basis of A
    rng = random.Random(31)
    for p, beta in [(2, (3, 2, 1)), (3, (3, 2)), (5, (2, 1))]:
        a = amb(p, beta)
        for _ in range(4):
            E = emb.random_embedding(p, beta, rng.randrange(1, 3), seed=rng.randrange(1 << 30))
            for F in (emb.lift(E), emb.reduce(E), emb.lift(E, 2), emb.reduce(E, 2)):
                typ = F.subgroup_type()
                want, _ = table_coords(a, typ, frozenset({0}), sorted(F.subgroup))
                assert F.generators() == want


def test_greedy_basis_checks_the_type():
    # one box too many or too few is refused, not returned as a basis
    a = amb(3, (3, 2, 1))
    E = emb.random_embedding(3, (3, 2, 1), 2, seed=5)
    X = E.chain()[2]
    gamma = emb.quotient_type(a, X)
    assert gamma == (2, 2, 1)
    for typ in ((2, 2), (2, 1, 1), (3, 2, 1), (2, 2, 2), (2, 2, 1, 1)):
        with pytest.raises(AssertionError):
            emb._greedy_basis(a, typ, X, a.all_elements())


def test_cached_truncation_checks_cap():
    E = emb.random_embedding(3, (3, 2, 1), 2, seed=4)
    assert E.exponent >= 2
    cut = emb.truncate(E, 1)
    assert emb.truncate(E, 1) is cut
    below = cut.ambient.size - 1
    # a cold embedding, built before the cap is lowered, fails the same way
    cold = emb.random_embedding(3, (3, 2, 1), 2, seed=4)
    with limits(general=below), pytest.raises(CapExceeded) as cached:
        emb.truncate(E, 1)
    with limits(general=below), pytest.raises(CapExceeded) as fresh:
        emb.truncate(cold, 1)
    assert str(cached.value) == str(fresh.value)
    with limits(general=cut.ambient.size):
        assert emb.truncate(E, 1) is cut
    # at or past the exponent p^ell A = 0, and E is its own truncation
    for ell in (E.exponent, E.exponent + 1, E.exponent + 3):
        assert emb.truncate(E, ell) is E
        with limits(general=1):
            assert emb.truncate(E, ell) is E


def test_inherited_chains_match_recomputed():
    # reduce, lift and subfactor hand their results a known start of the
    # p-chain; it must equal the chain scaled from scratch
    rng = random.Random(31)
    for p, max_size in ((2, 5), (3, 4), (5, 3)):
        for n in range(1, max_size + 1):
            for beta in partitions_of(n):
                E = emb.random_embedding(p, beta, rng.randrange(1, 4), seed=rng.randrange(1 << 30))
                e = E.exponent
                derived = [emb.reduce(E, s) for s in range(e + 2)]
                derived += [emb.lift(E, s) for s in range(3)]
                derived += [
                    emb.subfactor(E, ell, u) for ell in range(e + 2) for u in range(ell + 1)
                ]
                for X in derived:
                    again = emb.Embedding(X.ambient, subgroup=X.subgroup)
                    assert X.chain() == again.chain(), (p, beta)
    zero = emb.empty_embedding(2)
    assert emb.lift(zero).chain() == [frozenset({0})]


def test_reductions_read_the_links_of_their_parent(monkeypatch):
    # E's fold keeps the tableau of each p^s A, s >= 1, on the embedding
    # (``_tabs``, which its reductions share), so the tableau of
    # reduce(E, s) is a lookup, and a restriction of E's
    calls = []

    def counted(*args):
        calls.append(args)
        return link(*args)

    link = emb._link
    monkeypatch.setattr(emb, "_link", counted)
    rng = random.Random(30)
    for p, beta in ((2, (4, 3, 1)), (2, (5, 2, 2)), (3, (3, 2, 1))):
        for _ in range(30):
            E = emb.random_embedding(p, beta, rng.randrange(1, 4), seed=rng.randrange(1 << 30))
            tab, e = emb.klein_tableau(E), E.exponent
            calls.clear()
            for s in range(1, e + 1):
                assert emb.klein_tableau(emb.reduce(E, s)) == restrict(tab, e, e - s)
            assert calls == [], (p, beta, E)


def test_typing_stores_no_tableau_on_the_ambient():
    # an embedding keeps the tableaux of its own p-chain, so typing many
    # subgroups of one ambient leaves none of them there
    ambient = emb.AmbientModule(2, (4, 4, 4))
    rng = random.Random(300)
    for _ in range(300):
        emb.klein_tableau(emb.Embedding(ambient, subgroup=random_subgroup(ambient, rng, 3)))
    held = list(vars(ambient).values())
    held += gc.get_referents(*held)
    assert not any(isinstance(x, KleinTableau) for x in held)


def test_random_embedding_is_reproducible():
    E1 = emb.random_embedding(2, (3, 2, 1), 2, seed=7)
    E2 = emb.random_embedding(2, (3, 2, 1), 2, seed=7)
    assert E1.generators() == E2.generators()
    assert E1.subgroup == E2.subgroup
    assert emb.random_embedding(2, (3, 2, 1), 2, seed=8).generators() != E1.generators()


def test_direct_sum_type():
    E = emb.direct_sum(emb.picket_embedding(2, 0, 1), emb.picket_embedding(2, 0, 1))
    assert E.beta == (1, 1)


def test_klein_forgets_to_lr():
    rng = random.Random(23)
    for p, beta in [(2, (3, 2, 1)), (3, (2, 2))]:
        for _ in range(10):
            E = emb.random_embedding(p, beta, 2, seed=rng.randrange(1 << 20))
            assert emb.klein_tableau(E).gammas == emb.lr_tableau(E).gammas


def test_cap_enforced(cold):
    with pytest.raises(CapExceeded):
        emb.AmbientModule(2, (30,))
    assert general_cap() >= 1 << 10


def test_prime_above_cap_fails_on_the_cap():
    # a prime past the cap is refused before it is tested for primality
    start = time.monotonic()
    with pytest.raises(CapExceeded):
        emb.Embedding.from_coords(1000000000000000003, (1,), [(1,)])
    assert time.monotonic() - start < 2
    # a cached ambient of order 1 fails the same way as a fresh one
    emb.AmbientModule.get(3, ())
    with limits(general=2), pytest.raises(CapExceeded):
        emb.AmbientModule.get(3, ())


def test_huge_ambient_fails_on_the_cap_at_once(cold):
    # |beta| is compared with the cap's bit length before p^|beta| is
    # formed, so neither a 47,713-digit order nor a 10^8-fold power is built
    start = time.monotonic()
    for n in (100000, 100000000):
        with limits(general=1 << 20), pytest.raises(
            CapExceeded, match=rf"^ambient order 3\^{n} exceeds cap 1048576$"
        ):
            emb.AmbientModule(3, (n,))
    assert time.monotonic() - start < 2
    # orders at the cap are accepted, one step past it is refused
    for p, beta, cap in [(2, (20,), 1 << 20), (2, (2, 1), 8), (3, (2,), 9), (5, (1,), 5)]:
        with limits(general=cap):
            assert emb.AmbientModule(p, beta).size == cap
        with limits(general=cap - 1), pytest.raises(CapExceeded):
            emb.AmbientModule(p, beta)
    with limits(general=15), pytest.raises(CapExceeded, match="ambient order 2\\^4 exceeds cap 15"):
        emb.AmbientModule(2, (4,))


def test_env_cap_override(monkeypatch, cold):
    monkeypatch.setenv("HALLKIT_CAP", "16")
    assert general_cap() == 16
    with pytest.raises(CapExceeded):
        emb.AmbientModule(2, (5,))


def test_embedding_json_roundtrip():
    E = emb.bipicket_embedding(2, 4, 2)
    data = E.to_json()
    assert data == {"p": 2, "beta": [4, 2], "gens": [[4, 2]]}
    again = emb.Embedding.from_json(data)
    assert again == E


@pytest.mark.parametrize(
    "data, message",
    [
        # a float part is refused, not truncated to (2, 1)
        ({"p": 2, "beta": [2.7, 1], "gens": [[1, 0]]}, r"^malformed embedding JSON: expected int, got float$"),
        ({"p": 2.0, "beta": [2, 1], "gens": []}, r"^malformed embedding JSON: expected int, got float$"),
        ({"p": 2, "beta": [2, 1]}, r"^embedding JSON lacks the field 'gens'$"),
    ],
)
def test_embedding_from_json_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        emb.Embedding.from_json(data)


PINNED_FUNCTOR_DIGEST = "8a0464cf2b021620d3cbad7943278abacc68cdfed02087ea0935ff5009388b3a"


def _functor_outputs() -> str:
    """JSON of seeded random embeddings at p = 2, 3, 5 and of every
    truncation, subfactor, lift and reduction of them, each with its
    Klein tableau."""
    rng = random.Random(20261017)
    out = []
    for p, max_size in ((2, 6), (3, 5), (5, 3)):
        for n in range(1, max_size + 1):
            for beta in partitions_of(n):
                for k in (1, 2, 3):
                    E = emb.random_embedding(p, beta, k, seed=rng.randrange(1 << 30))
                    results = [E]
                    for ell in range(E.exponent + 1):
                        results.append(emb.truncate(E, ell))
                        results += [emb.subfactor(E, ell, u) for u in range(ell + 1)]
                    for s in (1, 2):
                        results += [emb.lift(E, s), emb.reduce(E, s)]
                    out += [[F.to_json(), emb.klein_tableau(F).to_json()] for F in results]
    return json.dumps(out, sort_keys=True)


def test_functor_outputs_pinned():
    # Recorded from the element-set implementation before its truncation
    # and basis extraction were rewritten; any change to a chosen basis,
    # a quotient's coordinates or a tableau shows here.
    digest = hashlib.sha256(_functor_outputs().encode()).hexdigest()
    assert digest == PINNED_FUNCTOR_DIGEST


PINNED_BIJECTION_DIGEST = "e4d04e74e31e1c63fb209fee9d03753fc384e9fe04ce7cf3d7c145f2082701e5"


def _bijection_outputs() -> str:
    """JSON of the tableau <-> object bijection both ways, and of the
    realizations of entries-<=2 tableaux at p = 2, 3, 5."""
    objects = [[str(obj), tableau_of_object(obj).to_text()] for obj in enumerate_objects(10)]
    tabs = {n: [t for b in partitions_of(n) for t in enumerate_klein_entries2(b)] for n in range(11)}
    decoded = [[t.to_text(), str(object_of_tableau(t))] for n in range(11) for t in tabs[n]]
    realized = [
        [p, t.to_text(), emb.realize(t, p).to_json()]
        for p, max_size in ((2, 7), (3, 5), (5, 3))
        for n in range(max_size + 1)
        for t in tabs[n]
    ]
    return json.dumps([objects, decoded, realized], sort_keys=True)


def test_bijection_outputs_pinned():
    # Recorded before tableau_of_object, object_of_tableau and
    # object_embedding were rebuilt on n-ary direct sums; any change to an
    # encoded tableau, a decoded object or a realization shows here.
    digest = hashlib.sha256(_bijection_outputs().encode()).hexdigest()
    assert digest == PINNED_BIJECTION_DIGEST


def test_direct_sum_nary_matches_fold():
    for p in (2, 3):
        a = emb.bipicket_embedding(p, 4, 2)
        b = emb.picket_embedding(p, 1, 3)
        c = emb.random_embedding(p, (2, 1), 2, seed=7)
        nary = emb.direct_sum(a, b, c)
        assert nary.to_json() == emb.direct_sum(emb.direct_sum(a, b), c).to_json()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: emb.Embedding(amb(2, (2, 1))), "need generators or an explicit subgroup"),
        (lambda: amb(2, (2, 1)).pack((1,)), "coordinate count mismatch"),
        (lambda: emb.picket_embedding(2, 3, 2), "need 0 <= ell <= m"),
        (lambda: emb.bipicket_embedding(2, 3, 3), "need 1 <= r <= m-1"),
        (lambda: emb.direct_sum(), "a direct sum needs a summand to fix the prime"),
        (
            lambda: emb.direct_sum(emb.picket_embedding(2, 1, 2), emb.picket_embedding(3, 1, 2)),
            "summands must share the prime",
        ),
        (lambda: emb.truncate(emb.picket_embedding(2, 1, 2), -1), "level must be >= 0"),
        (lambda: emb.subfactor(emb.picket_embedding(2, 1, 2), 1, 2), "need 0 <= u <= ell"),
        (lambda: emb.lift(emb.picket_embedding(2, 1, 2), -1), "need s >= 0"),
    ],
)
def test_embedding_constructions_reject_bad_arguments(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
