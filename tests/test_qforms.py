from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hallkit.errors import NonIntegral, NonPolynomial
from hallkit.qforms import QOrderFactored, QPolynomial, evaluate, gl_order

factored = st.builds(
    QOrderFactored.from_parts,
    st.integers(-3, 6),
    st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=3),
)


def QO(power, factors=()):
    return QOrderFactored.from_parts(power, dict(factors))


def test_multiply_examples():
    assert QO(2) * QO(3) == QO(5)
    assert QO(8, {1: 1}) * QO(0, {1: -1}) == QO(8)
    assert QO(22, {1: 2}) * QO(1, {1: 1}) == QO(23, {1: 3})
    # the same product, checked by evaluation at q = 2
    lhs = (QO(22, {1: 2}) * QO(1, {1: 1})).evaluate(2)
    assert lhs == QO(23, {1: 3}).evaluate(2)


def test_divide_examples():
    assert QO(23, {1: 3}) / QO(22, {1: 2}) == QO(1, {1: 1})
    x = QO(5, {2: 1})
    assert x / x == QO(0)
    assert QO(0) / QO(1) == QO(-1)


def test_expand_examples():
    assert QO(0, {1: 1}).expand() == QPolynomial.from_dict({1: 1, 0: -1})
    assert QO(8, {1: 1}).expand() == QPolynomial.from_dict({9: 1, 8: -1})
    with pytest.raises(NonPolynomial):
        QO(-1).expand()


def test_gl_order_examples():
    assert gl_order(1) == QO(0, {1: 1})
    assert gl_order(2) == QO(1, {1: 1, 2: 1})
    assert gl_order(0) == QO(0)
    # invertible matrices over the 2-element field: 1, 1, 6, 168
    assert [evaluate(gl_order(m), 2) for m in range(4)] == [1, 1, 6, 168]


def test_evaluate_examples():
    poly = QPolynomial.from_dict({2: 2, 1: 1, 0: -1})
    assert evaluate(poly, 2) == 9
    assert evaluate(poly, 3) == 20
    assert evaluate(QPolynomial.from_dict({9: 1, 8: -1}), 2) == 256
    with pytest.raises(NonIntegral):
        QO(-1).evaluate(2)


def test_polynomial_text_and_json():
    poly = QPolynomial.from_dict({2: 2, 1: 1, 0: -1})
    assert poly.to_text() == "2*q^2 + q - 1"
    assert QPolynomial.from_json(poly.to_json()) == poly
    assert poly.to_json() == {"coeffs": {"2": 2, "1": 1, "0": -1}}
    assert QPolynomial.zero().to_text() == "0"
    assert QPolynomial.from_dict({9: 1, 8: -1}).to_text() == "q^9 - q^8"


@pytest.mark.parametrize(
    "data, message",
    [
        # keys are read by read_int, so a sign or another script's digit is refused
        ({"coeffs": {"+1": 1, "\u0662": 3}}, r"^not an integer: '\+1'$"),
        # values are JSON integers, not truncated floats
        ({"coeffs": {"2": 1.9}}, r"^malformed polynomial JSON: expected int, got float$"),
        ({}, r"^polynomial JSON lacks the field 'coeffs'$"),
    ],
)
def test_polynomial_from_json_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        QPolynomial.from_json(data)


def test_polynomial_exact_division():
    num = QPolynomial.from_dict({2: 1, 0: -1})
    den = QPolynomial.from_dict({1: 1, 0: -1})
    assert num.exact_div(den) == QPolynomial.from_dict({1: 1, 0: 1})
    with pytest.raises(NonPolynomial):
        num.exact_div(QPolynomial.from_dict({3: 1}))


@given(factored, factored)
def test_expand_is_multiplicative(x, y):
    try:
        ex, ey = x.expand(), y.expand()
    except NonPolynomial:
        return
    assert (x * y).expand() == ex * ey


@given(factored, st.sampled_from([2, 3, 5]))
def test_expand_agrees_with_evaluate(x, q0):
    try:
        poly = x.expand()
    except NonPolynomial:
        return
    assert poly.evaluate(q0) == x.evaluate(q0)


@given(factored)
def test_degree_matches_expansion(x):
    try:
        poly = x.expand()
    except NonPolynomial:
        return
    if not poly.is_zero():
        assert x.degree == poly.degree


def _times(x, y):
    """x * y as a pairwise product through from_parts, which drops the
    exponents that cancel."""
    out = x.factor_dict()
    for j, e in y.factors:
        out[j] = out.get(j, 0) + e
    return QOrderFactored.from_parts(x.power + y.power, out)


@given(st.lists(factored, max_size=5))
def test_product_is_the_fold_of_from_parts(forms):
    got = QOrderFactored.product(forms)
    assert got == reduce(_times, forms, QOrderFactored.one())
    assert all(e for _, e in got.factors)


def test_product_examples():
    assert QOrderFactored.product([]) == QOrderFactored.one()
    # (q-1) and (q-1)^-1 cancel, and no zero exponent is kept
    assert QOrderFactored.product([QO(2, {1: 1, 2: 1}), QO(1, {1: -1})]) == QO(3, {2: 1})
    assert QOrderFactored.product([QO(2, {1: 1, 2: 1}), QO(1, {1: -1})]).factors == ((2, 1),)
