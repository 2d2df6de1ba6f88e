import hashlib
import json
import re
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from hallkit import caps, hall, s2cat, tableaux
from hallkit.errors import CapExceeded, NoRefinement
from hallkit.hall import (
    dominant_refinement,
    expected_degree,
    hall_multiplicity,
    hall_multiplicity_factored,
    hall_polynomial,
    lr_multiplicity,
)
from hallkit.partitions import contains, partitions_of
from hallkit.qforms import QOrderFactored, QPolynomial, evaluate
from hallkit.s2cat import aut_order, aut_order_module, object_of_tableau
from hallkit.tableaux import (
    KleinTableau,
    LRTableau,
    enumerate_klein,
    enumerate_klein_entries2,
    enumerate_klein_refinements,
    enumerate_lr,
    restrict,
)


def poly(d):
    return QPolynomial.from_dict(d)


def test_worked_example():
    bd = hall_polynomial((3, 2, 1), (4, 3, 2), (2, 1))
    assert bd.total == poly({2: 2, 1: 1, 0: -1})
    assert sorted(p.to_text() for _, p in bd.per_tableau) == ["q - 1", "q^2", "q^2"]


def test_worked_example_multiplicities_by_tableau():
    pi2 = KleinTableau.make(
        [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)],
        {(2, 2): [1], (2, 3): [2], (3, 4): [2]},
    )
    pi3 = KleinTableau.make(
        [(2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2)],
        {(2, 2): [1], (2, 3): [2], (3, 4): [3]},
    )
    assert hall_multiplicity(pi2) == poly({1: 1, 0: -1})
    assert hall_multiplicity(pi3) == poly({2: 1})


def test_full_group_tableau_counts_one():
    (tab,) = enumerate_klein((2, 1), (2, 1), ())
    assert hall_multiplicity(tab) == QPolynomial.one()


def test_hall_polynomial_simple_cases():
    assert hall_polynomial((1,), (1, 1), (1,)).total == poly({1: 1, 0: 1})
    assert hall_polynomial((2,), (1, 1), ()).total == QPolynomial.zero()
    assert hall_polynomial((2,), (1, 1), ()).per_tableau == ()


def test_a_type_with_no_lr_tableau_shares_one_empty_breakdown(monkeypatch, cold):
    # alpha = (3, 1) is not inside beta, so the type has no LR tableau,
    # and every such type gets the same breakdown, equal to a fresh one
    bd = hall_polynomial((3, 1), (2, 2, 1, 1, 1), (1, 1, 1))
    fresh = hall.HallBreakdown(QPolynomial.zero(), ())
    assert bd.total.is_zero() and bd.per_tableau == ()
    assert json.dumps(bd.to_json()) == json.dumps(fresh.to_json())
    assert hall_polynomial((2,), (1, 1), ()) is bd
    # the cap is still checked before the type is
    monkeypatch.setenv("HALLKIT_CAP", "6")
    with pytest.raises(CapExceeded, match="diagram of 7 boxes exceeds cap 6"):
        hall_polynomial((3, 1), (2, 2, 1, 1, 1), (1, 1, 1))


def test_long_single_row_chain():
    # M(2000) has one subgroup of type (2000): the chain has 2,000 strips
    # of one box each, more than the interpreter's recursion limit
    assert hall_polynomial((2000,), (2000,), ()).total == QPolynomial.one()


def test_long_single_column_strip():
    # beta = alpha = (1^1000): one strip of 1,000 boxes, one per column, more
    # columns than the interpreter's recursion limit
    ones = (1,) * 1000
    assert hall_polynomial(ones, ones, ()).total == QPolynomial.one()


def test_long_floor_walk():
    # the subgroups of order p in (Z/p)^1000 number 1 + q + ... + q^999: a
    # one-box strip walked over 1,000 columns above the floor (1^999)
    got = hall_polynomial((1,), (1,) * 1000, (1,) * 999).total
    assert got == poly({k: 1 for k in range(1000)})


def test_tall_chain_aut_orders_count_only_the_strip_rows(cold):
    # beta = (10^7, 10^7 - 1): the Aut orders of every level's
    # restrictions count the rows that hold boxes, so the rows below them
    # cost nothing
    m = 10**7
    start = time.monotonic()
    with caps.limits(general=3 * m):
        got = hall_polynomial((2, 1), (m, m - 1), (m - 1, m - 3)).total
    assert time.monotonic() - start < 0.5
    assert got == poly({1: 1})


def test_levels_outside_their_chain_are_refused():
    # a level that is not one of its chain's subscript choices has no
    # factor, and no tableau reaches the multiplicity with one: the reader
    # refuses 1,1/2,1/2,2, which fails the lattice property at level 2,
    # whose strip has no subscript to draw, and 1/2/3;2@3:1, which misses
    # the forced subscript 2 of its box in row 3 (iii)
    for text, reason in [
        ("1,1/2,1/2,2", "lattice permutation fails at level 2"),
        ("1/2/3;2@3:1", "cell (2,3) misses forced subscript 2 (iii)"),
    ]:
        with pytest.raises(ValueError, match=f"^not a Klein tableau: {re.escape(reason)}$"):
            KleinTableau.from_text(text)


def test_a_type_that_is_no_partition_is_a_value_error():
    # an int where a partition belongs is refused as bad input, not as a
    # TypeError from deep inside the walk
    with pytest.raises(ValueError, match="^parts must be an iterable of integers, not int$"):
        hall_polynomial(3, 3, 0)


def test_breakdown_sums_to_total():
    for beta in partitions_of(6):
        for k in range(7):
            for alpha in partitions_of(k):
                for gamma in partitions_of(6 - k):
                    bd = hall_polynomial(alpha, beta, gamma)
                    total = QPolynomial.zero()
                    for _, p in bd.per_tableau:
                        total = total + p
                    assert total == bd.total


def test_lr_multiplicity_examples():
    lr1, lr2 = enumerate_lr((3, 2, 1), (4, 3, 2), (2, 1))
    by_lr = {lr1.gammas: lr_multiplicity(lr1), lr2.gammas: lr_multiplicity(lr2)}
    # the chain through (3,3,2) carries the two refinements q-1 and q^2
    assert by_lr[((2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2))] == poly({2: 1, 1: 1, 0: -1})
    assert by_lr[((2, 1), (3, 2, 1), (4, 2, 2), (4, 3, 2))] == poly({2: 1})
    picket_lr = LRTableau(((3,), (4,), (5,)))
    assert lr_multiplicity(picket_lr) == QPolynomial.one()


def test_dominant_refinement():
    lr1, lr2 = enumerate_lr((3, 2, 1), (4, 3, 2), (2, 1))
    chains = {lr1.gammas: lr1, lr2.gammas: lr2}
    split = chains[((2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2))]
    dom = dominant_refinement(split)
    assert hall_multiplicity(dom) == poly({2: 1})
    unique = chains[((2, 1), (3, 2, 1), (4, 2, 2), (4, 3, 2))]
    assert dominant_refinement(unique) == enumerate_klein_refinements(unique)[0]
    (bip,) = enumerate_klein_refinements(LRTableau(((3, 1), (3, 2), (4, 2))))
    assert dominant_refinement(LRTableau(((3, 1), (3, 2), (4, 2)))) == bip


def test_dominant_refinement_no_refinement():
    with pytest.raises(NoRefinement):
        # not a valid LR chain, so no refinements exist
        dominant_refinement(LRTableau(((1,), (2,), (2, 1))))


def test_a_chain_that_is_no_lr_tableau_is_refused_unpriced(cold):
    # a decreasing chain: refused with validate_lr's reason, a ValueError,
    # as it is built, so neither memo is read
    memos = (hall._level_terms, hall._strip_aut_order)
    for call in (lr_multiplicity, dominant_refinement):
        with pytest.raises(ValueError, match="not an LR tableau: chain not weakly increasing"):
            call(LRTableau(((2,), (1,))))
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def test_dominant_degree_matches_lr_degree():
    for beta in partitions_of(6):
        for k in range(7):
            for alpha in partitions_of(k):
                for gamma in partitions_of(6 - k):
                    for lr in enumerate_lr(alpha, beta, gamma):
                        total = lr_multiplicity(lr)
                        dom = hall_multiplicity(dominant_refinement(lr))
                        assert dom.degree == total.degree


def test_expected_degree_examples():
    assert expected_degree((3, 2, 1), (4, 3, 2), (2, 1)) == 2
    assert expected_degree((4, 2), (4, 2), ()) == 0
    assert expected_degree((1,), (1, 1), (1,)) == 1


def test_multiplicities_are_monic_small():
    for beta in partitions_of(6):
        for k in range(7):
            for alpha in partitions_of(k):
                for gamma in partitions_of(6 - k):
                    for tab in enumerate_klein(alpha, beta, gamma):
                        assert hall_multiplicity(tab).is_monic()


def test_memoised_factors_match_direct_product():
    tabs = [
        tab
        for n in range(8)
        for beta in partitions_of(n)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for gamma in partitions_of(n - k)
        for tab in enumerate_klein(alpha, beta, gamma)
    ]
    # warm the memo on every beta first, so a key shared by two different
    # restrictions shows up as a mismatch below
    for tab in tabs:
        hall_multiplicity_factored(tab)
    for tab in reversed(tabs):
        want = QOrderFactored.one()
        for ell in range(2, tab.e + 2):
            numer = aut_order(object_of_tableau(restrict(tab, ell, 1)))
            denom = aut_order(object_of_tableau(restrict(tab, ell, 2)))
            want = want * (numer / denom)
        assert hall_multiplicity_factored(tab) == want


def test_memo_holds_one_entry_per_restriction(cold):
    # each 1-restriction the telescoping product reads is its own memo key:
    # one miss per distinct chain (g_{ell-1}, g_ell), the padded (g_e, g_e)
    # of ell = e+1 included, none shared or merged; the level terms start
    # cold too, so every level reads its strip again
    keys = set()
    for n in range(7):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for tab in enumerate_klein(alpha, beta, gamma):
                            hall_multiplicity_factored(tab)
                            keys.update(restrict(tab, ell, 1).gammas for ell in range(2, tab.e + 2))
    assert hall._strip_aut_order.cache_info().misses == len(keys)


def test_level_memos_hold_one_entry_per_level(cold):
    # a level's terms (each subscript choice with its factor) are one miss
    # per chain (g_{ell-2}, g_{ell-1}, g_ell), whatever ell, the padded
    # chain of ell = e+1 included; the terms hold exactly the choices
    # enumerated from the chain's columns, in their order
    tabs = [
        tab
        for n in range(7)
        for beta in partitions_of(n)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for gamma in partitions_of(n - k)
        for tab in enumerate_klein(alpha, beta, gamma)
    ]
    for tab in tabs:
        hall_multiplicity_factored(tab)
        assert tab in enumerate_klein_refinements(tab)
    chains = {restrict(tab, ell, 2).gammas for tab in tabs for ell in range(2, tab.e + 2)}
    assert hall._level_terms.cache_info().misses == len(chains)
    for chain in chains:
        want = tableaux._level_subscripts(tableaux.chain_columns(*chain))
        assert tuple(hall._level_terms(*chain)) == want


def test_each_level_memo_miss_reads_its_chain_once(monkeypatch, cold):
    # over every type inside beta = (5,4,3,2,1,1), from cold memos, a chain's
    # columns are read once per miss of the memos that price it: a
    # _level_terms miss hands its one pass to both the subscript enumerator
    # and the Aut orders, and a _strip_aut_order miss makes its own
    beta = (5, 4, 3, 2, 1, 1)
    inside = [
        lam for n in range(sum(beta) + 1) for lam in partitions_of(n) if contains(beta, lam)
    ]
    types = [(a, g) for a in inside for g in inside if sum(a) + sum(g) == sum(beta)]
    assert len(types) == 1808
    passes = 0

    def counted(*chain):
        nonlocal passes
        passes += 1
        return tableaux.chain_columns(*chain)

    monkeypatch.setattr(hall, "chain_columns", counted)
    monkeypatch.setattr(s2cat, "chain_columns", counted)
    for alpha, gamma in types:
        hall_polynomial(alpha, beta, gamma)
    misses = hall._level_terms.cache_info().misses + hall._strip_aut_order.cache_info().misses
    assert passes == misses == 1694


def test_refinement_sum_factors_over_levels():
    # a level's factor depends on its chain and its own cells, and the
    # levels of a refinement are chosen independently, so the sum over the
    # Klein refinements of an LR tableau is prod_{ell=2}^{e+1} of
    # S(g_{ell-2}, g_{ell-1}, g_ell), the sum of the factors of the chain's
    # _level_terms (the padded level, with an empty strip, has one term,
    # the empty level)
    def value(form, q):
        out = Fraction(q) ** form.power
        for j, e in form.factors:
            out *= Fraction(q**j - 1) ** e
        return out

    lrs = [
        lr
        for n in range(9)
        for beta in partitions_of(n)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for gamma in partitions_of(n - k)
        for lr in enumerate_lr(alpha, beta, gamma)
    ]
    assert len(lrs) == 1351
    for lr in lrs:
        gs = lr.gammas + (lr.beta,)
        chains = list(zip(gs, gs[1:], gs[2:]))
        want = lr_multiplicity(lr)
        for q in (2, 3, 5):
            product_of_sums = Fraction(1)
            for chain in chains:
                product_of_sums *= sum(value(f, q) for f in hall._level_terms(*chain).values())
            assert product_of_sums == evaluate(want, q), (lr, q)


def test_expansion_memo_expands_each_distinct_product_once(cold):
    forms = set()
    for n in range(8):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        for tab in enumerate_klein(alpha, beta, gamma):
                            assert hall_multiplicity(tab) == hall_multiplicity_factored(tab).expand()
                            forms.add(hall_multiplicity_factored(tab))
    assert hall._expansion.cache_info().misses == len(forms)


def test_orbit_identity_for_entries_at_most_two():
    # the subgroups with a tableau of entries <= 2 form one Aut(M(beta))
    # orbit, stabilised by Aut of the tableau's object, so the multiplicity
    # times that Aut order is |Aut M(beta)|, as factored forms
    tabs = [tab for n in range(11) for beta in partitions_of(n) for tab in enumerate_klein_entries2(beta)]
    assert len(tabs) == 3170
    for tab in tabs:
        orbit = hall_multiplicity_factored(tab) * aut_order(object_of_tableau(tab))
        assert orbit == aut_order_module(tab.beta), tab


def test_hall_algebra_is_associative():
    # (u_a u_b) u_c = u_a (u_b u_c) with u_a u_b = sum g^lambda_{a,b} u_lambda:
    # for every mu, sum_lambda g^lambda_{a,b} g^mu_{lambda,c} equals
    # sum_rho g^rho_{b,c} g^mu_{a,rho}, exactly in Z[q]
    g = lru_cache(maxsize=None)(lambda a, lam, b: hall_polynomial(a, lam, b).total)

    zero, instances = QPolynomial.zero(), 0
    sizes = [(i, j, k) for i in range(8) for j in range(8 - i) for k in range(8 - i - j)]
    for i, j, k in sizes:
        for a, b, c in product(partitions_of(i), partitions_of(j), partitions_of(k)):
            for mu in partitions_of(i + j + k):
                left = sum((g(a, lam, b) * g(lam, mu, c) for lam in partitions_of(i + j)), zero)
                right = sum((g(b, rho, c) * g(a, mu, rho) for rho in partitions_of(j + k)), zero)
                assert left == right, (a, b, c, mu)
                instances += 1
    assert instances == 9965


def test_breakdowns_pinned():
    # every nonempty breakdown with |beta| <= 9: summand order, tableaux and
    # multiplicities, as JSON, against a digest recorded before the level memos
    rows = [
        [list(alpha), list(beta), list(gamma), bd.to_json()]
        for n in range(10)
        for beta in partitions_of(n)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for gamma in partitions_of(n - k)
        for bd in [hall_polynomial(alpha, beta, gamma)]
        if bd.per_tableau
    ]
    assert len(rows) == 2720
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "a9ddd36042bf7123c94f3b4bf273f69087b9b76523166dd033ba43e8ae4bc145"
