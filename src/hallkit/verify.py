"""Verification suites: every symbolic formula against the brute-force oracle.

Four suites, bundled so CI can run one command:

* ``formulas``   -- Hom/Aut closed forms against morphism enumeration,
                    End orders against kernel orders (``hom_order``),
                    plus the factored-order anchor values.
* ``roundtrip``  -- the object/tableau bijection both ways and the
                    realization of tableaux as concrete embeddings.
* ``theorem2``   -- functor/tableau identities on seeded random
                    embeddings (reductions, approximations, adjointness,
                    symbol-multiplicity equality).
* ``hall``       -- exhaustive Hall-polynomial verification: evaluation
                    at q = p equals subgroup counts and per-tableau counts
                    match (these need the subgroup census, so a beta
                    whose M(beta) is over the census bound skips them
                    and is counted); the symbolic (alpha, gamma)-symmetry,
                    degree and monicity checks run on every beta within
                    the diagram cap and count the others skipped; the
                    orbit identity never skips: for every tableau with
                    entries <= 2 and |beta| <= 12, its multiplicity
                    times the Aut order of its object is |Aut M(beta)|.

Each check is a sweep: a name, a list of cases and a per-case test,
run by ``_sweep``, the one place that counts.  Besides its detail string
the check records ``run``, ``skipped`` (over the cap) and ``failed``
cases and ``skip_reason``, the first skip's reason or "".  It passed
exactly when ``failed`` is 0.  A case is what one cap guards: an
indecomposable pair, an object, a realization, an embedding or a beta
census.  A check with no cap counts the items it compares: tableaux,
objects, (object, y) pairs, summands or triples.  A one-shot check is a
sweep of one case; skipped, its detail is its skip reason.  Every case
runs through ``_capped``, the module's one ``except CapExceeded``.
The caps are those in force (see ``caps``; the CLI puts ``--cap`` in
force around the suites); the Aut/End sweep lowers the general cap to
``BRUTE_CAP`` for its map walks.  Suites are deterministic given their
seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass

from . import embeddings as emb
from . import oracle
from .caps import general_cap, limits
from .errors import CapExceeded
from .hall import expected_degree, hall_multiplicity_factored, hall_polynomial
from .partitions import partitions_of
from .qforms import QOrderFactored, evaluate, gl_order
from .s2cat import (
    Bipicket,
    Picket,
    S2Object,
    aut_order,
    aut_order_module,
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
    detail: str
    run: int
    skipped: int
    failed: int
    skip_reason: str

    @property
    def passed(self) -> bool:
        return self.failed == 0


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "checks": [{"passed": c.passed, **asdict(c)} for c in self.checks],
        }


# Cap on the hom-space size of the per-object Aut/End sweep, under the
# general cap; larger objects are counted as skipped.
BRUTE_CAP = 1 << 14

# The primes and the largest |beta| of theorem2's random embeddings.
THEOREM2_PRIMES = (2, 3)
THEOREM2_MAX_SIZE = 8

# The largest |beta| of hall's orbit identity, whatever its max_beta.
ORBIT_MAX_SIZE = 12


def _names(primes) -> str:
    return ", ".join(map(str, primes))


def _capped(skips: list[str], run, *args):
    """run(*args), or None when one of its brute-force counts exceeds the
    cap; the reason is then appended to skips.  Every case runs through
    here: it is verify's one ``except CapExceeded``."""
    try:
        return run(*args)
    except CapExceeded as exc:
        skips.append(f"skipped over cap: {exc}")
        return None


def _bad(outcomes, skips) -> str:
    return f"{sum(outcomes)} bad"


def _sweep(name: str, test, cases, detail=_bad, fault=bool, skipped=()) -> Check:
    """The check `name`: test(*case), never None, on each case through
    ``_capped``.  A case fails when fault(its outcome); detail(outcomes,
    skips) is written from the cases that ran and the skip reasons, which
    start with ``skipped``, those of the cases ruled out before the sweep.
    Cases are drawn one at a time, so a generator may share the test's rng."""
    skips = list(skipped)
    outcomes = [out for case in cases if (out := _capped(skips, test, *case)) is not None]
    failed = sum(1 for out in outcomes if fault(out))
    reason = skips[0] if skips else ""
    return Check(name, detail(outcomes, skips), len(outcomes), len(skips), failed, reason)


def _one_shot(name: str, test) -> Check:
    """A sweep of one case, where test() returns (ok, detail)."""
    return _sweep(name, test, [()], lambda outs, skips: outs[0][1] if outs else skips[0],
                  fault=lambda out: not out[0])


def suite_formulas(prime: int = 2) -> SuiteReport:
    """Brute-force checks skip, and say so, whatever exceeds the cap: the
    sweeps count their skipped pairs and objects, an anchor check reports
    itself skipped.  Closed-form checks always run in full."""
    start = time.monotonic()
    p = prime

    def gl_orders():
        counts = [oracle.aut_count_module(p, (1,) * m) for m in range(4)]
        want = [evaluate(gl_order(m), p) for m in range(4)]
        return counts == want, f"{counts} vs {want}"

    anchors = [
        (S2Object.of(Bipicket(4, 2)), QOrderFactored(8, (1,))),
        (S2Object.of(Picket(1, 4), Picket(0, 3), Picket(0, 2)), QOrderFactored(20, (3,))),
        (S2Object.of(Bipicket(4, 2), Picket(1, 3)), QOrderFactored(20, (2,))),
    ]

    # embeddings are built inside the capped callables, so an ambient
    # over the cap skips its check
    def end_aut_anchors():
        T42, T31 = emb.bipicket_embedding(p, 4, 2), emb.bipicket_embedding(p, 3, 1)
        end, aut = oracle.hom_count(T42, T42), oracle.aut_count(T31)
        return end == p**9 and aut == (p - 1) * p**4, f"End(T(4,2))={end}, Aut(T(3,1))={aut}"

    def hom_bad(x, y):
        Ex, Ey = (emb.object_embedding(S2Object.of(z), p) for z in (x, y))
        return p ** hom_len_indec(x, y) != oracle.hom_count(Ex, Ey)

    # an object fails once, and counts in the detail once per wrong order;
    # its embedding is built under the general cap, its map walk under the
    # smaller BRUTE_CAP
    def end_aut_bad(obj):
        E = emb.object_embedding(obj, p)
        with limits(general=min(BRUTE_CAP, general_cap())):
            end, aut = oracle.end_aut_counts(E)
        return (evaluate(aut_order(obj), p) != aut) + (p ** end_power(obj) != end)

    # |End E| as the kernel order of hom_order, with no map walk, so every
    # object runs that is within the general cap
    def end_kernel_bad(obj):
        E = emb.object_embedding(obj, p)
        return oracle.hom_order(E, E) != p ** end_power(obj)

    def objects_detail(bad, skips):
        return f"{len(bad)} objects, {len(skips)} skipped over cap, {sum(bad)} bad"

    def orbit_formula():
        cases = (
            emb.bipicket_embedding(p, 4, 2),
            emb.picket_embedding(p, 2, 3),
            emb.object_embedding(S2Object.of(Picket(1, 2), Picket(0, 1)), p),
        )
        return all(oracle.orbit_check(E) for E in cases), ""

    indecs, objs = enumerate_indecomposables(6), enumerate_objects(8)
    obj_cases = [(obj,) for obj in objs]
    checks = [
        _one_shot("gl-order-vs-brute", gl_orders),
        _sweep("aut-order-anchors", lambda obj, want: aut_order(obj) != want, anchors,
               lambda *_: "; ".join(str(aut_order(o)) for o, _ in anchors)),
        _one_shot("end-aut-brute-anchors", end_aut_anchors),
        _sweep("hom-lengths-vs-brute", hom_bad, [(x, y) for x in indecs for y in indecs],
               lambda bad, skips: f"{len(indecs)}^2 indec pairs, {len(skips)} skipped over cap, "
               f"{sum(bad)} bad"),
        _sweep("tableau-hom-lengths-agree",
               lambda tab, obj, y: hom_len_tableau(tab, y) != hom_len_obj(obj, y),
               [(tab, obj, y) for obj in objs for tab in [tableau_of_object(obj)] for y in indecs],
               lambda bad, _: f"{sum(bad)} mismatches"),
        _sweep("aut-end-orders-vs-brute", end_aut_bad, obj_cases, objects_detail),
        _sweep("end-orders-vs-kernel", end_kernel_bad, obj_cases, objects_detail),
        _sweep("bipicket-end-length-closed-form",
               lambda x: hom_len_tableau(tableau_of_object(S2Object.of(x)), x)
               != x.m + 3 * x.r - 1,
               [(Bipicket(m, r),) for m in range(3, 9) for r in range(1, m - 1)], lambda *_: ""),
        _one_shot("orbit-formula", orbit_formula),
    ]
    return SuiteReport("formulas", checks, time.monotonic() - start)


def suite_roundtrip(max_beta: int = 10, realize_max: int = 8, primes=(2, 3)) -> SuiteReport:
    start = time.monotonic()
    # the tableaux with entries <= 2 by |beta|, enumerated once for both
    # directions of the bijection and for the realizations
    by_size = [
        [tab for beta in partitions_of(n) for tab in enumerate_klein_entries2(beta)]
        for n in range(max(max_beta, realize_max) + 1)
    ]
    tabs = [(tab,) for level in by_size[: max_beta + 1] for tab in level]
    realized = [(tab, p) for p in primes for level in by_size[: realize_max + 1] for tab in level]
    checks = [
        _sweep("tableau-object-tableau",
               lambda tab: tableau_of_object(object_of_tableau(tab)) != tab, tabs,
               lambda bad, _: f"{len(bad)} tableaux, {sum(bad)} bad"),
        _sweep("object-tableau-object",
               lambda obj: object_of_tableau(tableau_of_object(obj)) != obj,
               [(obj,) for obj in enumerate_objects(max_beta)],
               lambda bad, _: f"{len(bad)} objects, {sum(bad)} bad"),
        _sweep("realization-fidelity",
               lambda tab, p: emb.klein_tableau(emb.realize(tab, p)) != tab, realized,
               lambda bad, skips: f"{len(realized)} realizations (p = {_names(primes)}), "
               f"{len(skips)} skipped over cap, {sum(bad)} bad"),
    ]
    return SuiteReport("roundtrip", checks, time.monotonic() - start)


def _embedding_battery(E: emb.Embedding, rng: random.Random) -> list[str]:
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
        if emb.klein_tableau(emb.truncate(E, ell)) != restrict(tab, ell, ell):
            failures.append(f"approximation tableau ell={ell}")

    up, down = emb.lift(E), emb.reduce(E)
    down_up = emb.lift(down)
    if emb.lift(emb.reduce(up)).subgroup != up.subgroup:
        failures.append("up-down-up")
    if emb.reduce(down_up).subgroup != down.subgroup:
        failures.append("down-up-down")
    radical, socle = amb.p_power_set(1), frozenset(amb.killed_by(1))
    if (emb.reduce(up).subgroup == E.subgroup) != (E.subgroup <= radical):
        failures.append("up-down fixed-point criterion")
    if (down_up.subgroup == E.subgroup) != (socle <= E.subgroup):
        failures.append("down-up fixed-point criterion")

    m = rng.randrange(1, 4)
    F = emb.picket_embedding(E.p, rng.randrange(0, min(2, m) + 1), m)
    s = rng.randrange(0, 3)
    if not oracle.adjointness_check(E, F, s):
        failures.append(f"adjointness s={s} F={F.beta}")

    n = amb.beta[0] if amb.beta else 0
    for ell in range(2, e + 1):
        obj = object_of_tableau(emb.klein_tableau(emb.subfactor(E, ell, 2)))
        for row in range(1, n + 1):
            for r in range(1, row):
                if tab.count_symbols(ell, rows={row}, subs={r}) != obj.multiplicity(
                    bipicket(row, r)
                ):
                    failures.append(f"symbol multiplicity ell={ell} row={row} r={r}")
        # entry counts also match picket multiplicities one level down
        obj1 = object_of_tableau(emb.klein_tableau(emb.subfactor(E, ell, 1)))
        for row in range(1, n + 1):
            boxes = tab.count_symbols(ell, rows={row})
            if boxes != obj1.multiplicity(Picket(1, row)):
                failures.append(f"box count ell={ell} row={row}")
    return failures


def suite_theorem2(count: int = 500, seed: int = 20260808) -> SuiteReport:
    start = time.monotonic()
    rng, primes = random.Random(seed), THEOREM2_PRIMES
    betas = [beta for n in range(1, THEOREM2_MAX_SIZE + 1) for beta in partitions_of(n)]

    def draws():
        # one case at a time: each is drawn after the previous battery's draws
        for i in range(count):
            beta = betas[rng.randrange(len(betas))]
            yield primes[i % len(primes)], beta, rng.randrange(1, 4), rng.randrange(1 << 30)

    def battery(p, beta, k, E_seed):
        E = emb.random_embedding(p, beta, k, seed=E_seed)
        return [f"p={p} beta={beta}: {failure}" for failure in _embedding_battery(E, rng)]

    def detail(found, skips):
        failures = [failure for listed in found for failure in listed]
        return (
            f"{count} embeddings (seed {seed}; p = {_names(primes)}), "
            f"{len(skips)} skipped over cap; "
            + ("; ".join(failures[:5]) if failures else "all identities hold")
        )

    check = _sweep("functor-tableau-identities", battery, draws(), detail)
    return SuiteReport("theorem2", [check], time.monotonic() - start)


def suite_hall(prime: int = 2, max_beta: int = 7) -> SuiteReport:
    start = time.monotonic()
    p = prime
    betas = [beta for n in range(max_beta + 1) for beta in partitions_of(n)]

    def breakdowns(beta):
        n = sum(beta)
        return {
            (alpha, gamma): hall_polynomial(alpha, beta, gamma)
            for k in range(n + 1) for alpha in partitions_of(k) for gamma in partitions_of(n - k)
        }

    # every (alpha, beta, gamma) breakdown, computed once for all six
    # checks; a beta over the diagram cap has none, and each symbolic
    # check counts it skipped (its census is over the census bound first)
    over_cap: list[str] = []
    bds = {beta: bd for beta in betas if (bd := _capped(over_cap, breakdowns, beta)) is not None}
    triples = [(alpha, beta, gamma, bd) for beta in bds for (alpha, gamma), bd in bds[beta].items()]

    # one census read per beta gives the three census checks their faults;
    # a beta over the census bound is skipped once, for all three
    def census_faults(beta):
        record, pairs = oracle.census(p, beta), bds[beta].items()
        types, tableaux = record.types, record.tableaux
        return ([evaluate(bd.total, p) != types.get(key, 0) for key, bd in pairs],
                sum(evaluate(poly, p) != tableaux.get(tab, 0)
                    for _, bd in pairs for tab, poly in bd.per_tableau),
                sum(sum(tableaux.get(tab, 0) for tab, _ in bd.per_tableau) != types.get(key, 0)
                    for key, bd in pairs))

    over_bound: list[str] = []
    faults = [(f,) for beta in betas if (f := _capped(over_bound, census_faults, beta)) is not None]

    def census_detail(bad, skips):
        return f"{len(skips)} betas skipped over cap, {sum(bad)} bad"

    def symbolic_detail(bad, skips):
        return (f"{len(skips)} betas skipped over cap, " if skips else "") + _bad(bad, skips)

    def degree_bad(alpha, beta, gamma, bd):
        return not bd.total.is_zero() and bd.total.degree != expected_degree(alpha, beta, gamma)

    # the subgroups with an entries-<=2 tableau T form one Aut(M(beta))
    # orbit, stabilised by Aut of T's object (the paper's Proposition
    # KRS-multiplicity), so the multiplicity read from the chain times the
    # object-side Aut order is |Aut M(beta)|
    def orbit_bad(tab, aut_beta):
        return hall_multiplicity_factored(tab) * aut_order(object_of_tableau(tab)) != aut_beta

    orbit_tabs = [(tab, aut_beta) for n in range(ORBIT_MAX_SIZE + 1) for beta in partitions_of(n)
                  for aut_beta in [aut_order_module(beta)] for tab in enumerate_klein_entries2(beta)]
    checks = [
        _sweep("counts-match-oracle", lambda f: f[0], faults,
               lambda bad, skips: f"{sum(map(len, bad))} instances, "
               + census_detail(map(sum, bad), skips), fault=any, skipped=over_bound),
        _sweep("per-tableau-counts-match", lambda f: f[1], faults, census_detail,
               skipped=over_bound),
        _sweep("tableau-census-refines-type-census", lambda f: f[2], faults, census_detail,
               skipped=over_bound),
        _sweep("alpha-gamma-symmetry", lambda bd, mirror: bd.total != mirror.total,
               [(bd, bds[beta][(gamma, alpha)])
                for alpha, beta, gamma, bd in triples if alpha <= gamma],
               symbolic_detail, skipped=over_cap),
        _sweep("multiplicities-monic", lambda poly: not poly.is_monic(),
               [(poly,) for *_, bd in triples for _, poly in bd.per_tableau],
               symbolic_detail, skipped=over_cap),
        _sweep("degree-formula", degree_bad, triples, symbolic_detail, skipped=over_cap),
        _sweep("orbit-identity", orbit_bad, orbit_tabs,
               lambda bad, _: f"{len(bad)} tableaux with entries <= 2 and "
               f"|beta| <= {ORBIT_MAX_SIZE}, {sum(bad)} bad"),
    ]
    return SuiteReport("hall", checks, time.monotonic() - start)


def run_suites(
    names=SUITES,
    *,
    prime: int = 2,
    max_beta: int = 7,
    seed: int = 20260808,
    count: int = 500,
) -> list[SuiteReport]:
    suites = {
        "formulas": lambda: suite_formulas(prime),
        "roundtrip": suite_roundtrip,
        "theorem2": lambda: suite_theorem2(count=count, seed=seed),
        "hall": lambda: suite_hall(prime, max_beta),
    }
    for name in names:
        if name not in suites:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return [suites[name]() for name in names]
