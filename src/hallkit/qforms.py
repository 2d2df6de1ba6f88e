"""Exact arithmetic in the indeterminate q.

Two forms live here.  ``QPolynomial`` is an integer polynomial in q,
stored as one coefficient per exponent up to its degree.
``QOrderFactored`` is a group order kept in the factored shape
q^a * prod_j (q^j - 1)^{e_j}; exponents may go negative mid-computation,
which is what makes quotients of automorphism-group orders exact and
cancellation-friendly.  Expansion multiplies the factors out on one
coefficient list and divides the negative ones out of it; any division
that is not exact raises ``NonPolynomial``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import prod
from typing import Iterable, Mapping

from .errors import NonIntegral, NonPolynomial
from .partitions import json_record, json_typed, read_int


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    """coeffs without its trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True, slots=True)
class QPolynomial:
    """Integer polynomial in q: ``coeffs[e]`` is the coefficient of q^e,
    with no trailing zero, so the zero polynomial is ``()``."""

    coeffs: tuple[int, ...] = ()

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "QPolynomial":
        terms = {int(e): int(c) for e, c in coeffs.items() if c != 0}
        if any(e < 0 for e in terms):
            raise ValueError("negative exponents are not allowed in QPolynomial")
        return cls(tuple(terms.get(e, 0) for e in range(max(terms, default=-1) + 1)))

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def sum(cls, polys: Iterable["QPolynomial"]) -> "QPolynomial":
        """Coefficient-wise sum; the zero polynomial for none."""
        return cls(_trim(list(map(sum, zip_longest(*(p.coeffs for p in polys), fillvalue=0)))))

    def as_dict(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.coeffs) if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        return QPolynomial.sum((self, other))

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for e1, c1 in enumerate(self.coeffs):
            for e2, c2 in enumerate(other.coeffs):
                out[e1 + e2] += c1 * c2
        return QPolynomial(_trim(out))

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Exact polynomial division; raises NonPolynomial on any remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        de, dc = other.degree, other.leading_coefficient
        quot = [0] * max(len(rem) - de, 0)
        # a coefficient that dc does not divide leaves its remainder in rem
        for qe in reversed(range(len(quot))):
            quot[qe] = qc = rem[qe + de] // dc
            for oe, oc in enumerate(other.coeffs):
                rem[qe + oe] -= oc * qc
        if any(rem):
            raise NonPolynomial(f"{self} is not divisible by {other}")
        return QPolynomial(tuple(quot))

    def evaluate(self, q0: int) -> int:
        return sum(c * q0**e for e, c in enumerate(self.coeffs))

    def to_json(self) -> dict:
        return {"coeffs": {str(e): c for e, c in reversed(self.as_dict().items())}}

    @classmethod
    def from_json(cls, data: dict) -> "QPolynomial":
        """Inverse of ``to_json``; ValueError on any malformed field."""
        with json_record("polynomial"):
            coeffs = json_typed(data["coeffs"], dict).items()
            return cls.from_dict({read_int(e): json_typed(c, int) for e, c in coeffs})

    def to_text(self) -> str:
        """Render with explicit '*' and '^', descending exponents: 2*q^2 + q - 1."""
        if not self.coeffs:
            return "0"
        chunks: list[str] = []
        for e, c in reversed(self.as_dict().items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True, slots=True)
class QOrderFactored:
    """A group order in factored form q^power * prod_j (q^j - 1)^{e_j}.

    ``factors`` maps j to the (possibly negative) exponent e_j; zero
    exponents are never stored.
    """

    power: int = 0
    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_parts(cls, power: int, factors: Mapping[int, int]) -> "QOrderFactored":
        items = tuple(sorted((int(j), int(e)) for j, e in factors.items() if e != 0))
        if any(j < 1 for j, _ in items):
            raise ValueError("factor indices must be >= 1")
        return cls(int(power), items)

    @classmethod
    def one(cls) -> "QOrderFactored":
        return cls(0, ())

    @classmethod
    def q_power(cls, n: int) -> "QOrderFactored":
        return cls(n, ())

    @classmethod
    def product(cls, forms: Iterable["QOrderFactored"]) -> "QOrderFactored":
        """The product of clean forms: their exponents summed in one dict
        and built into the tuple directly, since clean operands need no
        re-check by ``from_parts``; ``one()`` for no forms."""
        power = 0
        exps: dict[int, int] = {}
        for form in forms:
            power += form.power
            for j, e in form.factors:
                exps[j] = exps.get(j, 0) + e
        return cls(power, tuple(sorted(item for item in exps.items() if item[1])))

    def __mul__(self, other: "QOrderFactored") -> "QOrderFactored":
        return QOrderFactored.product((self, other))

    def __truediv__(self, other: "QOrderFactored") -> "QOrderFactored":
        inverse = QOrderFactored(-other.power, tuple((j, -e) for j, e in other.factors))
        return QOrderFactored.product((self, inverse))

    @property
    def degree(self) -> int:
        """Degree of the expansion, valid whenever the expansion exists."""
        return self.power + sum(j * e for j, e in self.factors)

    def expand(self) -> QPolynomial:
        """Multiply out on one coefficient list: times each (q^j - 1)^e
        with e > 0, then divided by each with e < 0, then shifted by q^power.

        Raises NonPolynomial when the result is not a polynomial, which
        signals a violated invariant upstream.
        """
        coeffs = [1]
        for j, e in sorted(self.factors, key=lambda f: f[1] < 0):
            for _ in range(abs(e)):
                if e > 0:
                    # c * (q^j - 1): shift up by j, subtract c
                    coeffs[:0] = [0] * j
                    for i in range(len(coeffs) - j):
                        coeffs[i] -= coeffs[i + j]
                else:
                    # c / (q^j - 1) from the top: quotient to coeffs[j:], remainder to coeffs[:j]
                    for i in range(len(coeffs) - 1, j - 1, -1):
                        coeffs[i - j] += coeffs[i]
                    if any(coeffs[:j]):
                        raise NonPolynomial(f"{self} is not a polynomial")
                    del coeffs[:j]
        low = max(-self.power, 0)
        if any(coeffs[:low]):
            raise NonPolynomial(f"{self} is not a polynomial")
        return QPolynomial((0,) * self.power + tuple(coeffs[low:]))

    def evaluate(self, q0: int) -> int:
        """Exact big-integer value at q = q0; NonIntegral if not an integer."""
        num, den = 1, 1
        if self.power >= 0:
            num *= q0**self.power
        else:
            den *= q0 ** (-self.power)
        for j, e in self.factors:
            val = q0**j - 1
            if e > 0:
                num *= val**e
            else:
                den *= val ** (-e)
        if den == 0 or num % den != 0:
            raise NonIntegral(f"{self} at q={q0} is not an integer")
        return num // den

    def __str__(self) -> str:
        bits = [f"q^{self.power}"] if self.power else []
        for j, e in self.factors:
            base = f"(q^{j}-1)" if j > 1 else "(q-1)"
            bits.append(base if e == 1 else f"{base}^{e}")
        return "*".join(bits) if bits else "1"


def gl_order(m: int) -> QOrderFactored:
    """Order of the general linear group of rank m over the residue field.

    q^(m(m-1)/2) * prod_{j=1..m} (q^j - 1); the unit for m = 0.
    """
    if m < 0:
        raise ValueError("rank must be >= 0")
    return QOrderFactored.from_parts(m * (m - 1) // 2, {j: 1 for j in range(1, m + 1)})


def gaussian_binomial(n: int, k: int, q0: int) -> int:
    """[n, k] at q = q0: the k-subspaces of F_q0^n, 0 unless 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    return prod(q0 ** (n - i) - 1 for i in range(k)) // prod(q0**i - 1 for i in range(1, k + 1))


def evaluate(x: QPolynomial | QOrderFactored, q0: int) -> int:
    """Evaluate either form at an integer q0 >= 2."""
    if q0 < 2:
        raise ValueError("evaluation point must be >= 2")
    return x.evaluate(q0)
