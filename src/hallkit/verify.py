"""Verification suites: every symbolic formula against the brute-force oracle.

Four suites, bundled so CI can run one command:

* ``formulas``   -- Hom/Aut closed forms against morphism enumeration,
                    plus the factored-order anchor values.
* ``roundtrip``  -- the object/tableau bijection both ways and the
                    realization of tableaux as concrete embeddings.
* ``theorem2``   -- functor/tableau identities on seeded random
                    embeddings (reductions, approximations, adjointness,
                    symbol-multiplicity equality).
* ``hall``       -- exhaustive Hall-polynomial verification: evaluation
                    at q = p equals subgroup counts and per-tableau counts
                    match (these need the subgroup census, so a beta over
                    the subgroup cap skips them and is counted); the
                    symbolic (alpha, gamma)-symmetry, degree and
                    monicity checks run on every beta and never skip.

Each check is a named pass/fail with a short detail string; suites are
deterministic given their seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import embeddings as emb
from . import oracle
from .caps import general_cap, subgroup_cap
from .errors import CapExceeded
from .hall import expected_degree, hall_polynomial
from .partitions import partitions_of
from .qforms import QOrderFactored, evaluate, gl_order
from .s2cat import (
    Bipicket,
    Picket,
    S2Object,
    aut_order,
    bipicket,
    end_power,
    enumerate_indecomposables,
    enumerate_objects,
    hom_len_indec,
    hom_len_obj,
    hom_len_tableau,
    object_of_tableau,
    tableau_of_object,
)
from .tableaux import enumerate_klein_entries2, restrict

SUITES = ("formulas", "roundtrip", "theorem2", "hall")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(Check(name, bool(passed), detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# Bound on the hom-space size of the per-object Aut/End sweep, under the
# general cap; larger objects are counted as skipped.
BRUTE_BUDGET = 1 << 14


def _names(primes) -> str:
    return ", ".join(map(str, primes))


def _add_brute(rep: SuiteReport, name: str, run) -> None:
    """Add the check that run() returns as (passed, detail), or report it
    skipped when one of its brute-force counts exceeds the cap."""
    try:
        passed, detail = run()
    except CapExceeded as exc:
        passed, detail = True, f"skipped over cap: {exc}"
    rep.add(name, passed, detail)


def suite_formulas(prime: int = 2, cap: int | None = None) -> SuiteReport:
    """Brute-force checks skip, and say so, whatever exceeds the cap: the
    sweeps count their skipped pairs and objects, an anchor check reports
    itself skipped.  Closed-form checks always run in full."""
    rep = SuiteReport("formulas")
    start = time.monotonic()
    p = prime
    budget = min(BRUTE_BUDGET, general_cap(cap))

    def gl_orders():
        counts = [oracle.aut_count_module(p, (1,) * m, cap) for m in range(4)]
        want = [evaluate(gl_order(m), p) for m in range(4)]
        return counts == want, f"{counts} vs {want}"

    _add_brute(rep, "gl-order-vs-brute", gl_orders)

    anchors = [
        (S2Object.of(Bipicket(4, 2)), QOrderFactored.from_parts(8, {1: 1})),
        (
            S2Object.of(Picket(1, 4), Picket(0, 3), Picket(0, 2)),
            QOrderFactored.from_parts(20, {1: 3}),
        ),
        (
            S2Object.of(Bipicket(4, 2), Picket(1, 3)),
            QOrderFactored.from_parts(20, {1: 2}),
        ),
    ]
    ok = all(aut_order(obj) == want for obj, want in anchors)
    rep.add("aut-order-anchors", ok, "; ".join(str(aut_order(o)) for o, _ in anchors))

    # embeddings are built inside the guarded callables, so an ambient
    # over the cap skips its check
    def end_aut_anchors():
        T42, T31 = emb.bipicket_embedding(p, 4, 2, cap), emb.bipicket_embedding(p, 3, 1, cap)
        end, aut = oracle.hom_count(T42, T42, cap), oracle.aut_count(T31, cap)
        return end == p**9 and aut == (p - 1) * p**4, f"End(T(4,2))={end}, Aut(T(3,1))={aut}"

    _add_brute(rep, "end-aut-brute-anchors", end_aut_anchors)

    indecs = enumerate_indecomposables(6)
    bad = skipped = 0
    for x in indecs:
        for y in indecs:
            try:
                Ex = emb.object_embedding(S2Object.of(x), p, cap)
                Ey = emb.object_embedding(S2Object.of(y), p, cap)
                if p ** hom_len_indec(x, y) != oracle.hom_count(Ex, Ey, cap):
                    bad += 1
            except CapExceeded:
                skipped += 1
    rep.add(
        "hom-lengths-vs-brute",
        bad == 0,
        f"{len(indecs)}^2 indec pairs, {skipped} skipped over cap, {bad} bad",
    )

    bad = symbolic_bad = checked = skipped = 0
    for obj in enumerate_objects(8):
        tab = tableau_of_object(obj)
        for y in indecs:
            if hom_len_tableau(tab, y) != hom_len_obj(obj, y):
                symbolic_bad += 1
        try:
            end, aut = oracle.end_aut_counts(emb.object_embedding(obj, p, cap), budget)
        except CapExceeded:
            skipped += 1
            continue
        checked += 1
        bad += (evaluate(aut_order(obj), p) != aut) + (p ** end_power(obj) != end)
    rep.add("tableau-hom-lengths-agree", symbolic_bad == 0, f"{symbolic_bad} mismatches")
    rep.add(
        "aut-end-orders-vs-brute",
        bad == 0,
        f"{checked} objects under budget, {skipped} skipped over budget, {bad} bad",
    )

    ok = all(
        hom_len_tableau(tableau_of_object(S2Object.of(Bipicket(m, r))), Bipicket(m, r))
        == m + 3 * r - 1
        for m in range(3, 9)
        for r in range(1, m - 1)
    )
    rep.add("bipicket-end-length-closed-form", ok)

    def orbit_formula():
        cases = (
            emb.bipicket_embedding(p, 4, 2, cap),
            emb.picket_embedding(p, 2, 3, cap),
            emb.object_embedding(S2Object.of(Picket(1, 2), Picket(0, 1)), p, cap),
        )
        return all(oracle.orbit_check(E, cap) for E in cases), ""

    _add_brute(rep, "orbit-formula", orbit_formula)

    rep.elapsed = time.monotonic() - start
    return rep


def suite_roundtrip(
    max_beta: int = 10, realize_max: int = 8, primes=(2, 3), cap: int | None = None
) -> SuiteReport:
    rep = SuiteReport("roundtrip")
    start = time.monotonic()

    bad = total = 0
    for n in range(max_beta + 1):
        for beta in partitions_of(n):
            for tab in enumerate_klein_entries2(beta):
                total += 1
                if tableau_of_object(object_of_tableau(tab)) != tab:
                    bad += 1
    rep.add("tableau-object-tableau", bad == 0, f"{total} tableaux, {bad} bad")

    objs = enumerate_objects(max_beta)
    bad = sum(1 for obj in objs if object_of_tableau(tableau_of_object(obj)) != obj)
    rep.add("object-tableau-object", bad == 0, f"{len(objs)} objects, {bad} bad")

    bad = total = skipped = 0
    for p in primes:
        for n in range(realize_max + 1):
            for beta in partitions_of(n):
                for tab in enumerate_klein_entries2(beta):
                    total += 1
                    try:
                        if emb.klein_tableau(emb.realize(tab, p, cap)) != tab:
                            bad += 1
                    except CapExceeded:
                        skipped += 1
    detail = f"{total} realizations (p = {_names(primes)}), {skipped} skipped over cap, {bad} bad"
    rep.add("realization-fidelity", bad == 0, detail)

    rep.elapsed = time.monotonic() - start
    return rep


def _embedding_battery(E: emb.Embedding, rng: random.Random, cap: int | None) -> list[str]:
    """All functor/tableau identities for one embedding; returns failures.
    Raises CapExceeded when any construction or count is over the cap."""
    failures = []
    amb = E.ambient
    tab = emb.klein_tableau(E)
    e = E.exponent

    for s in range(e + 1):
        if emb.klein_tableau(emb.reduce(E, s)) != restrict(tab, e, e - s):
            failures.append(f"reduce tableau s={s}")
    for ell in range(e + 1):
        if emb.klein_tableau(emb.truncate(E, ell, cap)) != restrict(tab, ell, ell):
            failures.append(f"approximation tableau ell={ell}")

    up, down = emb.lift(E), emb.reduce(E)
    if emb.lift(emb.reduce(up)).subgroup != up.subgroup:
        failures.append("up-down-up")
    if emb.reduce(emb.lift(down)).subgroup != down.subgroup:
        failures.append("down-up-down")
    radical, socle = amb.p_power_set(1), frozenset(amb.killed_by(1))
    if (emb.reduce(up).subgroup == E.subgroup) != (E.subgroup <= radical):
        failures.append("up-down fixed-point criterion")
    if (emb.lift(down).subgroup == E.subgroup) != (socle <= E.subgroup):
        failures.append("down-up fixed-point criterion")

    m = rng.randrange(1, 4)
    F = emb.picket_embedding(E.p, rng.randrange(0, min(2, m) + 1), m, cap)
    s = rng.randrange(0, 3)
    if not oracle.adjointness_check(E, F, s, cap):
        failures.append(f"adjointness s={s} F={F.beta}")

    n = amb.beta[0] if amb.beta else 0
    for ell in range(2, e + 1):
        obj = object_of_tableau(emb.klein_tableau(emb.subfactor(E, ell, 2, cap)))
        for row in range(1, n + 1):
            for r in range(1, row):
                if tab.count_symbols(ell, rows={row}, subs={r}) != obj.multiplicity(
                    bipicket(row, r)
                ):
                    failures.append(f"symbol multiplicity ell={ell} row={row} r={r}")
        # entry counts also match picket multiplicities one level down
        obj1 = object_of_tableau(emb.klein_tableau(emb.subfactor(E, ell, 1, cap)))
        for row in range(1, n + 1):
            boxes = tab.count_symbols(ell, rows={row})
            if boxes != obj1.multiplicity(Picket(1, row)):
                failures.append(f"box count ell={ell} row={row}")
    return failures


def suite_theorem2(
    count: int = 500, seed: int = 20260808, primes=(2, 3), max_size: int = 8,
    cap: int | None = None,
) -> SuiteReport:
    rep = SuiteReport("theorem2")
    start = time.monotonic()
    rng = random.Random(seed)
    betas = {
        p: [b for n in range(1, max_size + 1) for b in partitions_of(n)] for p in primes
    }
    failures: list[str] = []
    skipped = 0
    for i in range(count):
        p = primes[i % len(primes)]
        beta = betas[p][rng.randrange(len(betas[p]))]
        k, E_seed = rng.randrange(1, 4), rng.randrange(1 << 30)
        try:
            E = emb.random_embedding(p, beta, k, seed=E_seed, cap=cap)
            found = _embedding_battery(E, rng, cap)
        except CapExceeded:
            skipped += 1
            continue
        failures += [f"p={p} beta={beta}: {failure}" for failure in found]
    rep.add(
        "functor-tableau-identities",
        not failures,
        f"{count} embeddings (seed {seed}; p = {_names(primes)}), {skipped} skipped over cap; "
        + ("; ".join(failures[:5]) if failures else "all identities hold"),
    )
    rep.elapsed = time.monotonic() - start
    return rep


def suite_hall(prime: int = 2, max_beta: int = 7, cap: int | None = None) -> SuiteReport:
    rep = SuiteReport("hall")
    start = time.monotonic()
    p = prime
    census_cap = min(subgroup_cap(), general_cap(cap))
    count_bad = tableau_bad = symmetry_bad = degree_bad = monic_bad = refine_bad = 0
    instances = skipped = 0
    for n in range(max_beta + 1):
        for beta in partitions_of(n):
            try:
                record = oracle.census(p, beta, census_cap)
                census, by_tab = record.types, record.tableaux
            except CapExceeded:
                census = by_tab = None
                skipped += 1
            totals = {}
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    for gamma in partitions_of(n - k):
                        bd = hall_polynomial(alpha, beta, gamma)
                        totals[(alpha, gamma)] = bd.total
                        monic_bad += sum(1 for _, poly in bd.per_tableau if not poly.is_monic())
                        if not bd.total.is_zero() and bd.total.degree != expected_degree(
                            alpha, beta, gamma
                        ):
                            degree_bad += 1
                        if census is None:
                            continue
                        instances += 1
                        if evaluate(bd.total, p) != census.get((alpha, gamma), 0):
                            count_bad += 1
                        tab_total = 0
                        for tab, poly in bd.per_tableau:
                            if evaluate(poly, p) != by_tab.get(tab, 0):
                                tableau_bad += 1
                            tab_total += by_tab.get(tab, 0)
                        if tab_total != census.get((alpha, gamma), 0):
                            refine_bad += 1
            symmetry_bad += sum(
                1 for (alpha, gamma), total in totals.items()
                if alpha <= gamma and totals[(gamma, alpha)] != total
            )
    detail = f"{instances} instances, {skipped} betas skipped over cap, {count_bad} bad"
    rep.add("counts-match-oracle", count_bad == 0, detail)
    rep.add("per-tableau-counts-match", tableau_bad == 0, f"{tableau_bad} bad")
    rep.add("tableau-census-refines-type-census", refine_bad == 0, f"{refine_bad} bad")
    rep.add("alpha-gamma-symmetry", symmetry_bad == 0, f"{symmetry_bad} bad")
    rep.add("multiplicities-monic", monic_bad == 0, f"{monic_bad} bad")
    rep.add("degree-formula", degree_bad == 0, f"{degree_bad} bad")
    rep.elapsed = time.monotonic() - start
    return rep


def run_suites(
    names=SUITES,
    *,
    prime: int = 2,
    max_beta: int = 7,
    seed: int = 20260808,
    count: int = 500,
    cap: int | None = None,
) -> list[SuiteReport]:
    reports = []
    for name in names:
        if name == "formulas":
            reports.append(suite_formulas(prime, cap))
        elif name == "roundtrip":
            reports.append(suite_roundtrip(cap=cap))
        elif name == "theorem2":
            reports.append(suite_theorem2(count=count, seed=seed, cap=cap))
        elif name == "hall":
            reports.append(suite_hall(prime, max_beta, cap))
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return reports
