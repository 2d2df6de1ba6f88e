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

The cap rule lives in ``_capped``, the module's one ``except
CapExceeded``: every brute-force case runs through it, and a case with a
count over the cap is skipped and said so.  A sweep counts its skipped
cases in its detail; a one-shot check passes with the detail "skipped
over cap: <reason>".  ``run_suites`` looks each suite up in one table.
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


def _capped(skips: list[str], run, *args):
    """run(*args), or None when one of its brute-force counts exceeds the
    cap; the reason is then appended to skips.  Every brute-force check
    runs through here: it is verify's one ``except CapExceeded``."""
    try:
        return run(*args)
    except CapExceeded as exc:
        skips.append(f"skipped over cap: {exc}")
        return None


def suite_formulas(prime: int = 2, cap: int | None = None) -> SuiteReport:
    """Brute-force checks skip, and say so, whatever exceeds the cap: the
    sweeps count their skipped pairs and objects, an anchor check reports
    itself skipped.  Closed-form checks always run in full."""
    rep = SuiteReport("formulas")
    start = time.monotonic()
    p = prime
    budget = min(BRUTE_BUDGET, general_cap(cap))
    skips: list[str] = []

    def gl_orders():
        counts = [oracle.aut_count_module(p, (1,) * m, cap) for m in range(4)]
        want = [evaluate(gl_order(m), p) for m in range(4)]
        return counts == want, f"{counts} vs {want}"

    rep.add("gl-order-vs-brute", *(_capped(skips, gl_orders) or (True, skips[-1])))

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

    # embeddings are built inside the capped callables, so an ambient
    # over the cap skips its check
    def end_aut_anchors():
        T42, T31 = emb.bipicket_embedding(p, 4, 2, cap), emb.bipicket_embedding(p, 3, 1, cap)
        end, aut = oracle.hom_count(T42, T42, cap), oracle.aut_count(T31, cap)
        return end == p**9 and aut == (p - 1) * p**4, f"End(T(4,2))={end}, Aut(T(3,1))={aut}"

    rep.add("end-aut-brute-anchors", *(_capped(skips, end_aut_anchors) or (True, skips[-1])))

    def hom_bad(x, y):
        Ex, Ey = (emb.object_embedding(S2Object.of(z), p, cap) for z in (x, y))
        return p ** hom_len_indec(x, y) != oracle.hom_count(Ex, Ey, cap)

    indecs = enumerate_indecomposables(6)
    pair_skips: list[str] = []
    bad = sum(_capped(pair_skips, hom_bad, x, y) or 0 for x in indecs for y in indecs)
    detail = f"{len(indecs)}^2 indec pairs, {len(pair_skips)} skipped over cap, {bad} bad"
    rep.add("hom-lengths-vs-brute", bad == 0, detail)

    def end_aut_bad(obj):
        end, aut = oracle.end_aut_counts(emb.object_embedding(obj, p, cap), budget)
        return (evaluate(aut_order(obj), p) != aut) + (p ** end_power(obj) != end)

    objs = enumerate_objects(8)
    bad = symbolic_bad = 0
    over_budget: list[str] = []
    for obj in objs:
        tab = tableau_of_object(obj)
        symbolic_bad += sum(hom_len_tableau(tab, y) != hom_len_obj(obj, y) for y in indecs)
        bad += _capped(over_budget, end_aut_bad, obj) or 0
    rep.add("tableau-hom-lengths-agree", symbolic_bad == 0, f"{symbolic_bad} mismatches")
    skipped = len(over_budget)
    detail = f"{len(objs) - skipped} objects under budget, {skipped} skipped over budget, {bad} bad"
    rep.add("aut-end-orders-vs-brute", bad == 0, detail)

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

    rep.add("orbit-formula", *(_capped(skips, orbit_formula) or (True, skips[-1])))

    rep.elapsed = time.monotonic() - start
    return rep


def suite_roundtrip(
    max_beta: int = 10, realize_max: int = 8, primes=(2, 3), cap: int | None = None
) -> SuiteReport:
    rep = SuiteReport("roundtrip")
    start = time.monotonic()

    # the tableaux with entries <= 2, by |beta|, enumerated once for both
    # directions of the bijection and for the realizations
    by_size = [
        [tab for beta in partitions_of(n) for tab in enumerate_klein_entries2(beta)]
        for n in range(max(max_beta, realize_max) + 1)
    ]
    tabs = [tab for level in by_size[: max_beta + 1] for tab in level]
    bad = sum(1 for tab in tabs if tableau_of_object(object_of_tableau(tab)) != tab)
    rep.add("tableau-object-tableau", bad == 0, f"{len(tabs)} tableaux, {bad} bad")

    objs = enumerate_objects(max_beta)
    bad = sum(1 for obj in objs if object_of_tableau(tableau_of_object(obj)) != obj)
    rep.add("object-tableau-object", bad == 0, f"{len(objs)} objects, {bad} bad")

    def realized_bad(tab, p):
        return emb.klein_tableau(emb.realize(tab, p, cap)) != tab

    tabs = [tab for level in by_size[: realize_max + 1] for tab in level]
    skips: list[str] = []
    bad = sum(_capped(skips, realized_bad, tab, p) or 0 for p in primes for tab in tabs)
    total = len(tabs) * len(primes)
    detail = f"{total} realizations (p = {_names(primes)}), {len(skips)} skipped over cap, {bad} bad"
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
    if not oracle.adjointness_check(E, F, s):
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

    def battery(p, beta, k, E_seed):
        return _embedding_battery(emb.random_embedding(p, beta, k, seed=E_seed, cap=cap), rng, cap)

    failures: list[str] = []
    skips: list[str] = []
    for i in range(count):
        p = primes[i % len(primes)]
        beta = betas[p][rng.randrange(len(betas[p]))]
        k, E_seed = rng.randrange(1, 4), rng.randrange(1 << 30)
        found = _capped(skips, battery, p, beta, k, E_seed) or ()
        failures += [f"p={p} beta={beta}: {failure}" for failure in found]
    rep.add(
        "functor-tableau-identities",
        not failures,
        f"{count} embeddings (seed {seed}; p = {_names(primes)}), {len(skips)} skipped over cap; "
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
    instances = 0
    skips: list[str] = []
    for n in range(max_beta + 1):
        for beta in partitions_of(n):
            record = _capped(skips, oracle.census, p, beta, census_cap)
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
                        if record is None:
                            continue
                        instances += 1
                        want = record.types.get((alpha, gamma), 0)
                        if evaluate(bd.total, p) != want:
                            count_bad += 1
                        tab_total = 0
                        for tab, poly in bd.per_tableau:
                            if evaluate(poly, p) != record.tableaux.get(tab, 0):
                                tableau_bad += 1
                            tab_total += record.tableaux.get(tab, 0)
                        if tab_total != want:
                            refine_bad += 1
            symmetry_bad += sum(
                1 for (alpha, gamma), total in totals.items()
                if alpha <= gamma and totals[(gamma, alpha)] != total
            )
    detail = f"{instances} instances, {len(skips)} betas skipped over cap, {count_bad} bad"
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
    suites = {
        "formulas": lambda: suite_formulas(prime, cap),
        "roundtrip": lambda: suite_roundtrip(cap=cap),
        "theorem2": lambda: suite_theorem2(count=count, seed=seed, cap=cap),
        "hall": lambda: suite_hall(prime, max_beta, cap),
    }
    for name in names:
        if name not in suites:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return [suites[name]() for name in names]
