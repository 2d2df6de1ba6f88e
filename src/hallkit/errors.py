"""Exception types shared across the package."""


class HallkitError(Exception):
    """Base class for all domain errors raised by hallkit."""


class CapExceeded(HallkitError):
    """An enumeration would exceed the configured size cap."""


class NonPolynomial(HallkitError):
    """A factored group-order quotient failed to expand to a polynomial.

    This always signals a bug upstream: every Hall multiplicity is a
    polynomial, so a non-exact division means an invariant was violated.
    """


class NonIntegral(HallkitError):
    """Evaluating a factored form did not produce an integer."""


class EntryTooLarge(HallkitError):
    """A Klein tableau with entries >= 3 was passed where <= 2 is required."""


class NoRefinement(HallkitError, ValueError):
    """A chain is no LR tableau (the ``LRTableau`` constructor's refusal),
    or an LR tableau admits no Klein refinement."""


class NonUniqueMaxDegree(HallkitError):
    """Two refinements of one LR tableau share the maximal degree.

    Must never fire; a unique dominant refinement always exists.
    """


class RangeError(HallkitError):
    """A restriction index is outside its admissible range."""
