"""Hall polynomials as sums over Klein tableaux.

The multiplicity of a single Klein tableau is a telescoping product of
automorphism-group-order ratios: for each entry level ell from 2 to e+1,
divide the automorphism-group order of the object decoded from the
1-restriction at ell by the one decoded from the 2-restriction.  Both
restrictions have entries at most 2, so both objects are sums of pickets
and bipickets, fixed by the chain and the symbols alone, and
``s2cat.level_aut_orders`` reads their orders from those plain ints with
no tableau or object built.  The levels' exponents are added into one
exponent vector, which is expanded once.

A level's 2-restriction is fixed by its chain (g_{ell-2}, g_{ell-1},
g_ell) and its cells, so a chain's subscript choices and their factors
are one object.  Chains, strips and products all repeat heavily across
tableaux and type triples, so three least-recently-used memos of at
most 2^14 entries each hold them once per process:

- ``_strip_aut_order`` maps each 1-restriction, the one-strip chain
  (g_{ell-1}, g_ell) with no symbols (g_{e+1} = g_e at ell = e+1), to
  its frozen factored Aut order;
- ``_level_terms`` maps each chain (g_{ell-2}, g_{ell-1}, g_ell), the
  padded one of ell = e+1 included, to its terms: every level that
  ``tableaux._level_subscripts`` enumerates for it, in canonical order,
  with its factored ratio.  A miss makes one ``tableaux.chain_columns``
  pass over the chain and hands it to both the enumerator and the
  pricing (``s2cat.level_aut_orders``, one count of the chain for every
  choice), and divides each order into ``_strip_aut_order(mid, top)``;
- ``_expansion`` maps each frozen factored product to its polynomial.

``_priced_refinements`` reads an LR chain's terms once and yields each
refinement with the product of its terms (``QOrderFactored.product``),
so a tableau's levels and exponents come from its terms with no lookup
of its own; ``hall_polynomial``, ``lr_multiplicity`` and
``dominant_refinement`` all read it.  ``hall_multiplicity_factored``
looks a single tableau's levels up in the same terms, by their cells.
A cold pass pays every miss once, and a miss costs the chain's columns
and strip boxes, never its height.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import NoRefinement, NonUniqueMaxDegree
from .partitions import moment, partition
from .qforms import QOrderFactored, QPolynomial
from .s2cat import level_aut_orders
from .tableaux import KleinTableau, LRTableau, _level_subscripts, _unchecked, chain_columns, enumerate_lr


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
    chain = (mid, top, top)
    (order,) = level_aut_orders(chain, chain_columns(*chain), ((),))
    return order


@lru_cache(maxsize=1 << 14)
def _level_terms(low, mid, top) -> Mapping[tuple, QOrderFactored]:
    """Every level the top entry of the chain (low, mid, top) can carry,
    each with its telescoping factor, in canonical order: the cells
    ((row, subs), ...) of ``_level_subscripts`` mapped to Aut of the
    1-restriction (mid, top) over Aut of the 2-restriction.  The chain's
    columns are read once, for both the choices and their orders."""
    chain = (low, mid, top)
    columns = chain_columns(*chain)
    levels = _level_subscripts(columns)
    strip = _strip_aut_order(mid, top)
    orders = level_aut_orders(chain, columns, levels)
    return MappingProxyType({cells: strip / order for cells, order in zip(levels, orders)})


def _priced_refinements(lr: LRTableau) -> Iterator[tuple[KleinTableau, QOrderFactored]]:
    """Each Klein refinement of lr, in canonical order, with its factored
    multiplicity: the product of one term per level of the chain's
    ``_level_terms``, so no level is looked up one by one."""
    gs = lr.gammas
    # level ell = e+1 reads the chain padded with g_{e+1} = g_e, and no cells
    padded = gs + (lr.beta,)
    terms = [t.items() for t in map(_level_terms, padded, padded[1:], padded[2:])]
    for combo in product(*terms):
        # the padded level is no level of the tableau
        levels = tuple(cells for cells, _ in combo[:-1])
        yield _unchecked(gs, levels), QOrderFactored.product(factor for _, factor in combo)


def hall_multiplicity_factored(tab: KleinTableau) -> QOrderFactored:
    """The multiplicity of one Klein tableau as a factored-form product:
    each level's factor looked up among its chain's terms, where a Klein
    tableau, valid by construction, always finds it."""
    # level ell = e+1 reads the chain padded with g_{e+1} = g_e, and no cells
    gs = tab.gammas + (tab.beta,)
    chains = zip(gs, gs[1:], gs[2:], tab.levels + ((),))
    return QOrderFactored.product(_level_terms(*chain)[cells] for *chain, cells in chains)


@lru_cache(maxsize=1 << 14)
def _expansion(form: QOrderFactored) -> QPolynomial:
    # expand is looked up on the class on every miss, so a wrapper
    # installed there sees each real expansion.
    return form.expand()


def hall_multiplicity(tab: KleinTableau) -> QPolynomial:
    """Polynomial counting the subgroups whose embedding has this tableau."""
    return _expansion(hall_multiplicity_factored(tab))


_NO_TABLEAU = HallBreakdown(QPolynomial.zero(), ())


def hall_polynomial(alpha, beta, gamma) -> HallBreakdown:
    """The classical Hall polynomial for the type triple, with breakdown.

    Each LR chain's Klein tableaux and their multiplicities come from
    ``_priced_refinements``; the total is summed in one dict.  A type
    with no LR tableau gets the one shared, frozen ``_NO_TABLEAU``.
    """
    if not (lrs := enumerate_lr(alpha, beta, gamma)):
        return _NO_TABLEAU
    parts = []
    total: dict[int, int] = {}
    for lr in lrs:
        for tab, form in _priced_refinements(lr):
            poly = _expansion(form)
            for d, c in poly.coeffs:
                total[d] = total.get(d, 0) + c
            parts.append((tab, poly))
    return HallBreakdown(QPolynomial.from_dict(total), tuple(parts))


def lr_multiplicity(lr: LRTableau) -> QPolynomial:
    """Sum of Hall multiplicities over all Klein refinements of an LR tableau."""
    total = QPolynomial.zero()
    for _, form in _priced_refinements(lr):
        total = total + _expansion(form)
    return total


def dominant_refinement(lr: LRTableau) -> KleinTableau:
    """The unique refinement whose multiplicity attains the LR degree.

    Degrees are read off the factored forms, so no expansion is needed.
    Raises NoRefinement when lr has none, and
    NonUniqueMaxDegree if the maximum is attained twice (which would
    contradict monicity of the summands and must never happen).
    """
    degrees = [(tab, form.degree) for tab, form in _priced_refinements(lr)]
    if not degrees:
        raise NoRefinement(f"no Klein refinement for {lr.gammas}")
    top = max(d for _, d in degrees)
    winners = [tab for tab, d in degrees if d == top]
    if len(winners) > 1:
        raise NonUniqueMaxDegree(f"degree {top} attained {len(winners)} times")
    return winners[0]


def expected_degree(alpha, beta, gamma) -> int:
    """moment(beta) - moment(alpha) - moment(gamma): the Hall-polynomial
    degree whenever the polynomial is nonzero."""
    return moment(partition(beta)) - moment(partition(alpha)) - moment(partition(gamma))
