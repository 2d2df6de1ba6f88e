"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact; the runtime limits are asserted against the
wall clock of the criterion body.
"""

import time

from hallkit import embeddings as emb
from hallkit import oracle, verify
from hallkit.hall import expected_degree, hall_multiplicity, hall_polynomial
from hallkit.partitions import partitions_of
from hallkit.qforms import QOrderFactored, QPolynomial, evaluate
from hallkit.s2cat import (
    Bipicket,
    Picket,
    S2Object,
    aut_order,
    enumerate_objects,
    object_of_tableau,
    tableau_of_object,
)
from hallkit.tableaux import enumerate_klein, enumerate_klein_entries2

WORKED = ((3, 2, 1), (4, 3, 2), (2, 1))


def _report(number: int, label: str, ok: bool, elapsed: float, limit: float):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE CRITERION {number} [{label}]: {verdict} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_worked_example():
    start = time.monotonic()
    bd = hall_polynomial(*WORKED)
    ok = bd.total == QPolynomial.from_dict({2: 2, 1: 1, 0: -1})
    parts = sorted(p.to_text() for _, p in bd.per_tableau)
    ok = ok and parts == ["q - 1", "q^2", "q^2"]
    _report(1, "worked example 2q^2+q-1", ok, time.monotonic() - start, 1.0)


def test_criterion_2_oracle_worked_example():
    start = time.monotonic()
    alpha, beta, gamma = WORKED
    ok = oracle.hall_count(2, alpha, beta, gamma) == 9
    by_tab = oracle.hall_count_by_tableau(2, beta)
    for tab in enumerate_klein(alpha, beta, gamma):
        ok = ok and by_tab.get(tab, 0) == evaluate(hall_multiplicity(tab), 2)
    counts = sorted(by_tab.get(t, 0) for t in enumerate_klein(alpha, beta, gamma))
    ok = ok and counts == [1, 4, 4]
    _report(2, "oracle count 9 with per-tableau {4,1,4}", ok, time.monotonic() - start, 60.0)


def test_criterion_3_aut_hom_anchors():
    start = time.monotonic()
    QO = QOrderFactored.from_parts
    ok = aut_order(S2Object.of(Bipicket(4, 2))) == QO(8, {1: 1})
    ok = ok and aut_order(
        S2Object.of(Picket(1, 4), Picket(0, 3), Picket(0, 2))
    ) == QO(20, {1: 3})
    ok = ok and aut_order(S2Object.of(Bipicket(4, 2), Picket(1, 3))) == QO(20, {1: 2})
    T42 = emb.bipicket_embedding(2, 4, 2)
    ok = ok and oracle.hom_count(T42, T42) == 512
    ok = ok and oracle.aut_count(emb.bipicket_embedding(2, 3, 1)) == 16
    _report(3, "Aut/Hom anchor values", ok, time.monotonic() - start, 30.0)


def test_criterion_4_bijection_roundtrips():
    start = time.monotonic()
    ok = True
    for n in range(11):
        for beta in partitions_of(n):
            for tab in enumerate_klein_entries2(beta):
                ok = ok and tableau_of_object(object_of_tableau(tab)) == tab
    for obj in enumerate_objects(10):
        ok = ok and object_of_tableau(tableau_of_object(obj)) == obj
    _report(4, "bijection round-trips to size 10", ok, time.monotonic() - start, 60.0)


def test_criterion_5_realization_fidelity():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        for n in range(9):
            for beta in partitions_of(n):
                for tab in enumerate_klein_entries2(beta):
                    ok = ok and emb.klein_tableau(emb.realize(tab, p)) == tab
    _report(5, "realization fidelity to size 8, p in {2,3}", ok, time.monotonic() - start, 120.0)


def test_criterion_6_exhaustive_hall_verification():
    start = time.monotonic()
    report = verify.suite_hall(prime=2, max_beta=7)
    by_name = {c.name: c for c in report.checks}
    # every beta is checked: none is skipped over the default cap
    ok = (
        by_name["counts-match-oracle"].passed
        and ", 0 betas skipped over cap," in by_name["counts-match-oracle"].detail
        and by_name["per-tableau-counts-match"].passed
        and by_name["alpha-gamma-symmetry"].passed
        and by_name["tableau-census-refines-type-census"].passed
    )
    detail = "; ".join(f"{c.name}: {c.detail}" for c in report.checks)
    print(f"  [{detail}]")
    _report(6, "exhaustive Hall verification |beta| <= 7", ok, time.monotonic() - start, 600.0)


def test_criterion_7_functor_identities():
    start = time.monotonic()
    report = verify.suite_theorem2(count=500, seed=20260808)
    # all 500 are checked: none is skipped over the default cap
    ok = report.passed and ", 0 skipped over cap;" in report.checks[0].detail
    print(f"  [{report.checks[0].detail}]")
    _report(7, "functor/tableau identities on 500 embeddings", ok, time.monotonic() - start, 600.0)


def test_criterion_8_degree_and_monicity():
    start = time.monotonic()
    ok = True
    for n in range(8):
        for beta in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        total = QPolynomial.zero()
                        for tab in enumerate_klein(alpha, beta, gamma):
                            poly = hall_multiplicity(tab)
                            ok = ok and poly.is_monic()
                            total = total + poly
                        if not total.is_zero():
                            ok = ok and total.degree == expected_degree(alpha, beta, gamma)
    _report(8, "monic multiplicities and moment degrees", ok, time.monotonic() - start, 600.0)
