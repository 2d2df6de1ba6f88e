"""Hall polynomials as sums over Klein tableaux.

The multiplicity of a single Klein tableau is a telescoping product of
automorphism-group-order ratios: for each entry level ell from 2 to e+1,
divide the automorphism-group order of the object decoded from the
1-restriction at ell by the one decoded from the 2-restriction.  Both
restrictions have entries at most 2, so both objects are sums of pickets
and bipickets and their orders are exact factored forms.  Quotients
accumulate in factored form and are expanded once at the end.

The short restrictions repeat heavily across tableaux and across type
triples, so each restriction's order is computed once per process: a
least-recently-used memo of at most 2^14 entries maps each restriction
the formula reads to its frozen factored order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NoRefinement, NonUniqueMaxDegree
from .partitions import moment, partition
from .qforms import QOrderFactored, QPolynomial
from .s2cat import aut_order, object_of_tableau
from .tableaux import (
    KleinTableau,
    LRTableau,
    enumerate_klein,
    enumerate_klein_refinements,
    restrict,
)


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
def _aut_order_of(short: KleinTableau) -> QOrderFactored:
    # aut_order and object_of_tableau are looked up in this module's
    # globals on every miss, so a wrapper installed there sees each miss.
    return aut_order(object_of_tableau(short))


def hall_multiplicity_factored(tab: KleinTableau) -> QOrderFactored:
    """The multiplicity of one Klein tableau as a factored-form product."""
    result = QOrderFactored.one()
    for ell in range(2, tab.e + 2):
        numer = _aut_order_of(restrict(tab, ell, 1))
        denom = _aut_order_of(restrict(tab, ell, 2))
        result = result * (numer / denom)
    return result


def hall_multiplicity(tab: KleinTableau) -> QPolynomial:
    """Polynomial counting the subgroups whose embedding has this tableau."""
    return hall_multiplicity_factored(tab).expand()


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
