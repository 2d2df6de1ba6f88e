import re
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hallkit.caps import limits
from hallkit.errors import CapExceeded, NonIntegral, NonPolynomial
from hallkit.qforms import QOrderFactored, QPolynomial, evaluate, gl_order

# exponent -> coefficient, zero coefficients included, and negative
# exponents only with a zero coefficient
terms = st.builds(
    lambda d, negative: {**d, **dict.fromkeys(negative, 0)},
    st.dictionaries(st.integers(0, 8), st.integers(-3, 3), max_size=6),
    st.sets(st.integers(-3, -1), max_size=2),
)

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
    out = dict(enumerate(x.factors, 1))
    for j, e in enumerate(y.factors, 1):
        out[j] = out.get(j, 0) + e
    return QOrderFactored.from_parts(x.power + y.power, out)


@given(st.lists(factored, max_size=5))
def test_product_is_the_fold_of_from_parts(forms):
    got = QOrderFactored.product(forms)
    assert got == reduce(_times, forms, QOrderFactored.one())
    assert not got.factors or got.factors[-1]


def test_product_examples():
    assert QOrderFactored.product([]) == QOrderFactored.one()
    # (q-1) and (q-1)^-1 cancel, and no zero exponent is kept
    assert QOrderFactored.product([QO(2, {1: 1, 2: 1}), QO(1, {1: -1})]) == QO(3, {2: 1})
    assert QOrderFactored.product([QO(2, {1: 1, 2: 1}), QO(1, {1: -1})]).factors == (0, 1)


def _nonzero(d):
    return {e: c for e, c in d.items() if c}


def _add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def _mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _nonzero(out)


# one term of to_text: a sign, then a constant or [coefficient*]q[^exponent]
TERM = re.compile(r"(-?)(?:(\d+)|(?:(\d+)\*)?q(?:\^(\d+))?)")


def _parse_text(text):
    """The nonzero terms of a polynomial rendered by to_text, as a dict."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign, const, coeff, exp = TERM.fullmatch(term).groups()
        e = 0 if const else int(exp or 1)
        out[e] = int(sign + (const or coeff or "1"))
    return _nonzero(out)


@given(terms)
def test_from_dict_against_a_dict(d):
    poly = QPolynomial.from_dict(d)
    assert poly.as_dict() == _nonzero(d)
    assert poly.degree == max(_nonzero(d), default=-1)
    assert poly.leading_coefficient == _nonzero(d).get(poly.degree, 0)
    assert poly.is_zero() == (not _nonzero(d))


def test_from_dict_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="negative exponents"):
        QPolynomial.from_dict({-1: 2, 0: 1})


@given(st.lists(terms, max_size=4), terms)
def test_sum_against_a_dict(ds, x):
    # x and -x cancel: the sum's top coefficients cancel whenever x has the
    # highest degree, as they do for every x when ds is empty
    ds = [*ds, x, {e: -c for e, c in x.items()}]
    want = reduce(_add, ds, {})
    got = QPolynomial.sum(map(QPolynomial.from_dict, ds))
    assert got == QPolynomial.from_dict(want)
    assert got.as_dict() == want and got.degree == max(want, default=-1)


@given(terms, terms)
def test_add_and_mul_against_a_dict(x, y):
    px, py = QPolynomial.from_dict(x), QPolynomial.from_dict(y)
    assert (px + py).as_dict() == _add(x, y)
    assert (px + py).degree == max(_add(x, y), default=-1)
    assert (px * py).as_dict() == _mul(_nonzero(x), _nonzero(y))
    assert (px * py).degree == max(_mul(_nonzero(x), _nonzero(y)), default=-1)


@given(terms, terms)
def test_exact_div_undoes_mul(x, y):
    px, py = QPolynomial.from_dict(x), QPolynomial.from_dict(y)
    if not py.is_zero():
        assert (px * py).exact_div(py) == px
    if py.degree > 0:
        # the remainder is 1
        with pytest.raises(NonPolynomial):
            (px * py + QPolynomial.one()).exact_div(py)


@given(terms, st.integers(-3, 3))
def test_evaluate_against_a_dict(d, q0):
    assert QPolynomial.from_dict(d).evaluate(q0) == sum(c * q0**e for e, c in _nonzero(d).items())


@given(terms)
def test_json_and_text_round_trips(d):
    poly = QPolynomial.from_dict(d)
    assert QPolynomial.from_json(poly.to_json()) == poly
    assert list(poly.to_json()["coeffs"]) == [str(e) for e in sorted(_nonzero(d), reverse=True)]
    assert _parse_text(poly.to_text()) == _nonzero(d)


def test_sum_examples():
    assert QPolynomial.sum([]) == QPolynomial.zero()
    # the top coefficients cancel, and no trailing zero is kept
    got = QPolynomial.sum([QPolynomial.from_dict({2: 1, 0: 1}), QPolynomial.from_dict({2: -1})])
    assert got == QPolynomial.from_dict({0: 1}) and got.coeffs == (1,)
    assert (QPolynomial.one() + QPolynomial.from_dict({0: -1})).coeffs == ()


@pytest.mark.parametrize(
    "form",
    [
        QO(0, {1: -1}),  # 1 / (q - 1)
        QO(0, {1: 1, 2: -1}),  # (q - 1) / (q^2 - 1)
        QO(-1, {1: 1}),  # (q - 1) / q
    ],
)
def test_expand_refuses_a_non_polynomial(form):
    with pytest.raises(NonPolynomial):
        form.expand()


# j -> exponent of (q^j - 1), zero exponents included
exponents = st.dictionaries(st.integers(1, 6), st.integers(-2, 2), max_size=4)
forms = st.tuples(st.integers(-3, 6), exponents)

# one factor of QOrderFactored.__str__: q^a, or (q-1) or (q^j-1) with an optional ^e
FACTOR = re.compile(r"q\^(-?\d+)|\(q(?:\^(\d+))?-1\)(?:\^(-?\d+))?")


def _parse_form(text):
    """(power, [(j, e), ...] in the order written) of a rendered form."""
    power, factors = 0, []
    for chunk in text.split("*") if text != "1" else []:
        a, j, e = FACTOR.fullmatch(chunk).groups()
        if a is not None:
            assert not factors and not power
            power = int(a)
        else:
            factors.append((int(j or 1), int(e or 1)))
    return power, factors


def _check_form(x, power, d):
    """x is the form q^power * prod (q^j - 1)^d[j], by every reader."""
    d = _nonzero(d)
    assert x.power == power
    assert dict((j, e) for j, e in enumerate(x.factors, 1) if e) == d
    assert len(x.factors) == max(d, default=0)
    assert x.degree == power + sum(j * e for j, e in d.items())
    assert _parse_form(str(x)) == (power, sorted(d.items()))


@given(forms)
def test_from_parts_against_a_dict(form):
    power, d = form
    _check_form(QOrderFactored.from_parts(power, d), power, d)


@given(st.lists(forms, max_size=4), exponents)
def test_product_and_quotient_against_a_dict(fs, x):
    # x and then x inverted: their exponents cancel in the product, which
    # leaves trailing zeros whenever x holds the largest j and interior
    # zeros wherever x alone has a j
    fs = [*fs, (1, x), (-1, {j: -e for j, e in x.items()})]
    got = QOrderFactored.product(QOrderFactored.from_parts(*f) for f in fs)
    _check_form(got, sum(a for a, _ in fs), reduce(_add, (d for _, d in fs), {}))
    (pa, da), (pb, db) = fs[0], fs[-1]
    quotient = QOrderFactored.from_parts(pa, da) / QOrderFactored.from_parts(pb, db)
    _check_form(quotient, pa - pb, _add(da, {j: -e for j, e in db.items()}))


def test_vector_examples():
    # an interior zero is kept and rendered as nothing; a trailing one goes
    x = QO(1, {1: 1, 2: 1, 3: -2}) * QO(0, {2: -1})
    assert x.factors == (1, 0, -2) and str(x) == "q^1*(q-1)*(q^3-1)^-2"
    assert (x / QO(0, {3: -2})).factors == (1,)
    assert QO(0, {1: 0, 4: 0}).factors == () and str(QO(0, {2: 0})) == "1"
    assert gl_order(3).factors == (1, 1, 1)


def test_vector_readers_refuse_an_index_above_the_cap():
    # a vector is as long as its largest index, so that index is checked
    # against the general cap before anything is allocated
    with limits(general=1000):
        for read in [
            lambda: QPolynomial.from_dict({5000: 1}),
            lambda: QPolynomial.from_json({"coeffs": {"5000": 1}}),
            lambda: QOrderFactored.from_parts(0, {5000: 1}),
        ]:
            with pytest.raises(CapExceeded, match="5000 exceeds cap 1000"):
                read()
        assert QPolynomial.from_dict({1000: 1}).degree == 1000
        assert QOrderFactored.from_parts(0, {1000: 1}).degree == 1000
    # a total of degree 20,000 round-trips at the default cap
    poly = QPolynomial.from_dict({20000: 1, 19999: 1})
    assert QPolynomial.from_json(poly.to_json()) == poly
