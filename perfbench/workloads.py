"""The benchmark's three workloads: inputs from a seed, timed ops, checks.

Each workload turns a seed into a list of op inputs with the benchmark's
own code, so the program sees only generated inputs.  ``run`` makes the
calls into hallkit for one op and returns what they produced; ``check``
compares those results after the timed phase and returns one list of
failure messages per op.  Every call goes through a module attribute
(``hall.hall_polynomial``, not a name imported once), so the tracer in
``tracing.py`` sees it.

Run ``PYTHONPATH=src python3 perfbench/workloads.py record-golden`` to
rewrite the per-op digests of ``hall_sweep`` from the code in ``src``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable

from hallkit import embeddings, hall, oracle, s2cat, tableaux

GOLDEN_PATH = Path(__file__).with_name("golden_hall_sweep.txt")


# ---------------------------------------------------------------------------
# partitions, kept independent of the program under test


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts at most max_part, lex-descending."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in partitions(n - first, first)
    ]


def contains(lam, mu) -> bool:
    return all(a >= b for a, b in zip_longest(lam, mu, fillvalue=0))


def moment(lam) -> int:
    return sum(i * part for i, part in enumerate(lam))


def value_at(poly, q: int) -> int:
    return sum(c * q**d for d, c in poly.as_dict().items())


# ---------------------------------------------------------------------------
# hall_sweep: every (alpha, gamma) inside one beta, symbolic side only

SWEEP_BETA = (5, 4, 3, 2, 1, 1)


def sweep_inputs(rng: random.Random) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    n = sum(SWEEP_BETA)
    subs = [a for k in range(n + 1) for a in partitions(k) if contains(SWEEP_BETA, a)]
    ops = [(a, g) for a in subs for g in subs if sum(a) + sum(g) == n]
    rng.shuffle(ops)
    return ops


def sweep_run(op):
    alpha, gamma = op
    return hall.hall_polynomial(alpha, SWEEP_BETA, gamma)


def sweep_key(op) -> str:
    alpha, gamma = op
    return ",".join(map(str, alpha)) + ";" + ",".join(map(str, gamma))


def sweep_digest(breakdown) -> str:
    text = json.dumps(breakdown.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_golden() -> dict[str, str]:
    lines = GOLDEN_PATH.read_text().splitlines()
    return dict(line.split() for line in lines if not line.startswith("#"))


def sweep_check(ops, results, golden: dict[str, str]) -> list[list[str]]:
    """Monic summands, total = sum of summands, degree formula, a golden
    digest per op, and alpha-gamma symmetry among the ops present."""
    want_degree = moment(SWEEP_BETA)
    totals = {op: bd.total.as_dict() for op, bd in zip(ops, results) if bd is not None}
    out = []
    for op, bd in zip(ops, results):
        if bd is None:
            out.append([])
            continue
        alpha, gamma = op
        bad = []
        summed: dict[int, int] = {}
        for _, poly in bd.per_tableau:
            if not poly.is_monic():
                bad.append("summand not monic")
            for d, c in poly.as_dict().items():
                summed[d] = summed.get(d, 0) + c
        if {d: c for d, c in summed.items() if c} != totals[op]:
            bad.append("total is not the sum of the summands")
        if totals[op] and bd.total.degree != want_degree - moment(alpha) - moment(gamma):
            bad.append("degree differs from moment formula")
        if golden.get(sweep_key(op)) != sweep_digest(bd):
            bad.append("digest differs from golden")
        mirror = totals.get((gamma, alpha))
        if mirror is not None and mirror != totals[op]:
            bad.append("alpha-gamma symmetry fails")
        out.append(bad)
    return out


# ---------------------------------------------------------------------------
# oracle_census: subgroup censuses at p = 2 against every polynomial of beta

CENSUS_P = 2


def census_inputs(rng: random.Random) -> list[tuple[int, ...]]:
    """Every beta with |beta| <= 7 and at most five parts, by size as the
    exhaustive Hall suite runs them, in seeded order within each size.

    (1^6), (2,1^5) and (1^7) alone cost ten times the rest; tier-1 covers
    them.  Keeping sizes in order keeps the census cache and garbage the
    program has accumulated when each op runs about the same from seed
    to seed.
    """
    ops = []
    for n in range(8):
        same_size = [b for b in partitions(n) if len(b) <= 5]
        rng.shuffle(same_size)
        ops += same_size
    return ops


def census_run(beta):
    types = oracle.hall_census(CENSUS_P, beta)
    by_tableau = oracle.hall_count_by_tableau(CENSUS_P, beta)
    n = sum(beta)
    polys = {
        (a, g): hall.hall_polynomial(a, beta, g)
        for k in range(n + 1)
        for a in partitions(k)
        for g in partitions(n - k)
    }
    return types, by_tableau, polys


def census_check(ops, results) -> list[list[str]]:
    """The checks of the exhaustive Hall suite: counts by type and by
    tableau at q = p, the tableau census refining the type census,
    monic summands, the degree formula and alpha-gamma symmetry."""
    out = []
    for beta, res in zip(ops, results):
        if res is None:
            out.append([])
            continue
        types, by_tableau, polys = res
        bad = set()
        if sum(types.values()) != sum(by_tableau.values()):
            bad.add("tableau census total differs from type census total")
        if set(types) - set(polys):
            bad.add("census has a type pair outside the enumerated triples")
        for (alpha, gamma), bd in polys.items():
            count = types.get((alpha, gamma), 0)
            if value_at(bd.total, CENSUS_P) != count:
                bad.add("polynomial at q=p differs from subgroup count")
            by_tab_sum = 0
            for tab, poly in bd.per_tableau:
                by_tab_sum += by_tableau.get(tab, 0)
                if value_at(poly, CENSUS_P) != by_tableau.get(tab, 0):
                    bad.add("summand at q=p differs from per-tableau count")
                if not poly.is_monic():
                    bad.add("summand not monic")
            if by_tab_sum != count:
                bad.add("per-tableau counts do not sum to the type count")
            if bd.total.as_dict() and bd.total.degree != (
                moment(beta) - moment(alpha) - moment(gamma)
            ):
                bad.add("degree differs from moment formula")
            if polys[(gamma, alpha)].total.as_dict() != bd.total.as_dict():
                bad.add("alpha-gamma symmetry fails")
        out.append(sorted(bad))
    return out


# ---------------------------------------------------------------------------
# functor_battery: functor/tableau identities on random embeddings at p = 3

BATTERY_P = 3


@dataclass(frozen=True)
class BatteryOp:
    beta: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    picket: tuple[int, int]  # (ell, m) of the adjointness partner P(ell, m)
    shift: int  # s of the adjointness check


def battery_inputs(rng: random.Random) -> list[BatteryOp]:
    """Every beta with 5 <= |beta| <= 7, each with 1, 2 and 3 uniform
    random generators, a random picket partner and shift, in seeded order.

    The functor suite draws beta uniformly with |beta| <= 8.  Per-op cost
    triples with each box, so such a draw makes the median op and the
    tail land on the seams between sizes, where the gaps are wide, and a
    run's total depend on how many large draws its seed got.  Below five
    boxes an op takes under 5 ms; eight boxes would triple a pass.
    """
    ops = []
    for n in range(5, 8):
        for beta in partitions(n):
            for k in (1, 2, 3):
                gens = tuple(tuple(rng.randrange(BATTERY_P**b) for b in beta) for _ in range(k))
                m = rng.randrange(1, 4)
                ell = rng.randrange(0, min(2, m) + 1)
                ops.append(BatteryOp(beta, gens, (ell, m), rng.randrange(0, 3)))
    rng.shuffle(ops)
    return ops


def battery_run(op: BatteryOp):
    """Returns (label, got, want) observations plus the level objects."""
    E = embeddings.Embedding.from_coords(BATTERY_P, op.beta, op.gens)
    tab = embeddings.klein_tableau(E)
    e = E.exponent
    obs = []
    for s in range(e + 1):
        obs.append((
            f"reduce tableau s={s}",
            embeddings.klein_tableau(embeddings.reduce(E, s)),
            tableaux.restrict(tab, e, e - s),
        ))
    for ell in range(e + 1):
        obs.append((
            f"approximation tableau ell={ell}",
            embeddings.klein_tableau(embeddings.truncate(E, ell)),
            tableaux.restrict(tab, ell, ell),
        ))
    amb = E.ambient
    up, down = embeddings.lift(E), embeddings.reduce(E)
    obs.append(("up-down-up", embeddings.lift(embeddings.reduce(up)).subgroup == up.subgroup, True))
    obs.append(("down-up-down", embeddings.reduce(embeddings.lift(down)).subgroup == down.subgroup, True))
    radical, socle = amb.p_power_set(1), frozenset(amb.killed_by(1))
    obs.append((
        "up-down fixed-point criterion",
        embeddings.reduce(up).subgroup == E.subgroup,
        E.subgroup <= radical,
    ))
    obs.append((
        "down-up fixed-point criterion",
        embeddings.lift(down).subgroup == E.subgroup,
        socle <= E.subgroup,
    ))
    F = embeddings.picket_embedding(BATTERY_P, *op.picket)
    obs.append((f"adjointness s={op.shift}", oracle.adjointness_check(E, F, op.shift), True))
    levels = [
        (
            ell,
            s2cat.object_of_tableau(embeddings.klein_tableau(embeddings.subfactor(E, ell, 2))),
            s2cat.object_of_tableau(embeddings.klein_tableau(embeddings.subfactor(E, ell, 1))),
        )
        for ell in range(2, e + 1)
    ]
    return tab, obs, levels


def battery_check(ops, results) -> list[list[str]]:
    """Every observation holds, and at each level the symbols of the
    tableau count the bipickets and pickets of the subfactors."""
    out = []
    for op, res in zip(ops, results):
        if res is None:
            out.append([])
            continue
        tab, obs, levels = res
        bad = [label for label, got, want in obs if got != want]
        n = op.beta[0]
        for ell, obj2, obj1 in levels:
            for row in range(1, n + 1):
                for r in range(1, row):
                    if tab.count_symbols(ell, rows={row}, subs={r}) != obj2.multiplicity(
                        s2cat.bipicket(row, r)
                    ):
                        bad.append(f"symbol multiplicity ell={ell} row={row} r={r}")
                if tab.count_symbols(ell, rows={row}) != obj1.multiplicity(s2cat.Picket(1, row)):
                    bad.append(f"box count ell={ell} row={row}")
        out.append(bad)
    return out


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random], list]
    run: Callable
    check: Callable[[list, list], list[list[str]]]


WORKLOADS = {
    "hall_sweep": Workload(
        sweep_inputs, sweep_run, lambda ops, res: sweep_check(ops, res, load_golden())
    ),
    "oracle_census": Workload(census_inputs, census_run, census_check),
    "functor_battery": Workload(battery_inputs, battery_run, battery_check),
}


def record_golden() -> None:
    ops = sweep_inputs(random.Random(0))
    digests = {sweep_key(op): sweep_digest(sweep_run(op)) for op in sorted(ops)}
    header = (
        "# hall_sweep golden digests, beta = "
        + ",".join(map(str, SWEEP_BETA))
        + ": alpha;gamma, then a sha256 prefix of HallBreakdown.to_json()\n"
    )
    GOLDEN_PATH.write_text(header + "".join(f"{k} {v}\n" for k, v in digests.items()))


if __name__ == "__main__":
    if sys.argv[1:] != ["record-golden"]:
        sys.exit("usage: python3 perfbench/workloads.py record-golden")
    record_golden()
