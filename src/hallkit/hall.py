"""Hall polynomials as sums over Klein tableaux.

The multiplicity of a single Klein tableau is a telescoping product of
automorphism-group-order ratios: for each entry level ell from 2 to e+1,
divide the automorphism-group order of the object decoded from the
1-restriction at ell by the one decoded from the 2-restriction.  Both
restrictions have entries at most 2, so both objects are sums of pickets
and bipickets, fixed by the chain and the symbols alone, and
``s2cat.chain_aut_order`` reads their orders from those plain ints with
no tableau or object built.  The levels' exponents are added into one
exponent vector, which is expanded once.

Levels, ratios and products all repeat heavily across tableaux and type
triples, so three least-recently-used memos of at most 2^14 entries
each hold them once per process:

- ``_strip_aut_order`` maps each 1-restriction, the one-strip chain
  (g_{ell-1}, g_ell) with no symbols (g_{e+1} = g_e at ell = e+1), to
  its frozen factored Aut order;
- ``_level_factor`` maps each level, as (g_{ell-2}, g_{ell-1}, g_ell)
  plus the tableau's own level tuple of entry ell (the data of
  restrict(T, ell, 2), so one entry per distinct 2-restriction), to its
  factored ratio; a miss reads the 2-restriction's order from its chain
  and cells and divides it into ``_strip_aut_order(mid, top)``;
- ``_expansion`` maps each frozen factored product to its polynomial.

A cold pass pays every miss once.  A miss counts the chain's rows in
plain dicts filled per strip box (``s2cat._summand_counts``, the count
the decoder reads too) and builds its exponent tuples directly, so it
costs the chain's columns and strip boxes, never its height.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NoRefinement, NonUniqueMaxDegree
from .partitions import moment, partition
from .qforms import QOrderFactored, QPolynomial
from .s2cat import chain_aut_order
from .tableaux import KleinTableau, LRTableau, enumerate_klein, enumerate_klein_refinements


@dataclass(frozen=True, slots=True)
class HallBreakdown:
    """Total Hall polynomial plus the per-tableau summands, in canonical order."""

    total: QPolynomial
    per_tableau: tuple[tuple[KleinTableau, QPolynomial], ...]

    def to_json(self) -> dict:
        return {
            "total": self.total.to_json(),
            "per_tableau": [
                {"tableau": tab.to_json(), "multiplicity": poly.to_json()}
                for tab, poly in self.per_tableau
            ],
        }


@lru_cache(maxsize=1 << 14)
def _strip_aut_order(mid, top) -> QOrderFactored:
    """Aut order of the 1-restriction (mid, top): one strip, no symbols."""
    return chain_aut_order(mid, top, top, ())


@lru_cache(maxsize=1 << 14)
def _level_factor(low, mid, top, cells) -> QOrderFactored:
    """The telescoping factor of one level, keyed on the data of its
    2-restriction: the chain (low, mid, top) and the level's cells
    ((row, subs), ...).  Aut of the 1-restriction over Aut of the
    2-restriction."""
    return _strip_aut_order(mid, top) / chain_aut_order(low, mid, top, cells)


def hall_multiplicity_factored(tab: KleinTableau) -> QOrderFactored:
    """The multiplicity of one Klein tableau as a factored-form product."""
    # level ell = e+1 reads the chain padded with g_{e+1} = g_e, and no cells
    gs = tab.gammas + (tab.beta,)
    power = 0
    exps: dict[int, int] = {}
    for factor in map(_level_factor, gs, gs[1:], gs[2:], tab.levels + ((),)):
        power += factor.power
        for j, e in factor.factors:
            exps[j] = exps.get(j, 0) + e
    return QOrderFactored.from_parts(power, exps)


@lru_cache(maxsize=1 << 14)
def _expansion(form: QOrderFactored) -> QPolynomial:
    # expand is looked up on the class on every miss, so a wrapper
    # installed there sees each real expansion.
    return form.expand()


def hall_multiplicity(tab: KleinTableau) -> QPolynomial:
    """Polynomial counting the subgroups whose embedding has this tableau."""
    return _expansion(hall_multiplicity_factored(tab))


def hall_polynomial(alpha, beta, gamma) -> HallBreakdown:
    """The classical Hall polynomial for the type triple, with breakdown.

    Zero polynomial with empty breakdown when no tableau of the type
    exists.
    """
    parts = [
        (tab, hall_multiplicity(tab)) for tab in enumerate_klein(alpha, beta, gamma)
    ]
    total = QPolynomial.zero()
    for _, poly in parts:
        total = total + poly
    return HallBreakdown(total, tuple(parts))


def lr_multiplicity(lr: LRTableau) -> QPolynomial:
    """Sum of Hall multiplicities over all Klein refinements of an LR tableau."""
    total = QPolynomial.zero()
    for tab in enumerate_klein_refinements(lr):
        total = total + hall_multiplicity(tab)
    return total


def dominant_refinement(lr: LRTableau) -> KleinTableau:
    """The unique refinement whose multiplicity attains the LR degree.

    Degrees are read off the factored forms, so no expansion is needed.
    Raises NoRefinement when there is none and NonUniqueMaxDegree if the
    maximum is attained twice (which would contradict monicity of the
    summands and must never happen).
    """
    refinements = enumerate_klein_refinements(lr)
    if not refinements:
        raise NoRefinement(f"no Klein refinement for {lr.gammas}")
    degrees = [hall_multiplicity_factored(tab).degree for tab in refinements]
    top = max(degrees)
    winners = [tab for tab, d in zip(refinements, degrees) if d == top]
    if len(winners) > 1:
        raise NonUniqueMaxDegree(f"degree {top} attained {len(winners)} times")
    return winners[0]


def expected_degree(alpha, beta, gamma) -> int:
    """moment(beta) - moment(alpha) - moment(gamma): the Hall-polynomial
    degree whenever the polynomial is nonzero."""
    return moment(partition(beta)) - moment(partition(alpha)) - moment(partition(gamma))
