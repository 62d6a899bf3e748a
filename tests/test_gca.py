import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift.coefficients import HSeries, _accumulate, codec
from qshift.cohomology import bv_apply
from qshift.diffops import Operator, op_compose
from qshift.errors import ExponentOverflow, NotPolynomial, ZeroPolynomial
from qshift.gca import (Element, apply_koszul_delta, gmul, koszul_operator,
                        make_crit_locus)

from conftest import (corpus_locus, decoded, degree_part, f_weights,
                      mono_mul, random_element)
from generator_oracle import op_apply


def test_make_crit_locus_cubic():
    m = 2
    f = Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3
    X = make_crit_locus(f, m)
    assert X.partials[0] == 3 * Element.y(m, 1) ** 2
    assert X.partials[1] == 3 * Element.y(m, 2) ** 2
    assert f_weights(X) == (Fraction(1, 3), Fraction(1, 3))


def test_make_crit_locus_quadric():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    assert X.partials[0] == 2 * Element.y(1, 1)
    assert f_weights(X) == (Fraction(1, 2),)


def test_make_crit_locus_mixed_weights():
    m = 2
    f = Element.y(m, 1) ** 3 + Element.y(m, 1) * Element.y(m, 2)
    X = make_crit_locus(f, m)
    assert X.partials[0] == 3 * Element.y(m, 1) ** 2 + Element.y(m, 2)
    assert X.partials[1] == Element.y(m, 1)
    assert f_weights(X) == (Fraction(1, 3), Fraction(2, 3))


def test_make_crit_locus_no_weights_when_inhomogeneous():
    f = Element.y(1, 1) ** 3 + Element.y(1, 1) ** 4
    X = make_crit_locus(f, 1)
    assert f_weights(X) is None


def test_make_crit_locus_errors():
    with pytest.raises(ZeroPolynomial):
        make_crit_locus(Element.zero(1), 1)
    with pytest.raises(NotPolynomial):
        make_crit_locus(Element.eta(1, 1), 1)
    hbar_poly = Element(1, {((1,), ()): HSeries.monomial(1)})
    with pytest.raises(NotPolynomial):
        make_crit_locus(hbar_poly, 1)


def test_gmul_odd_anticommutation():
    m = 2
    e1, e2 = Element.eta(m, 1), Element.eta(m, 2)
    assert gmul(e1, e2) == -gmul(e2, e1)
    assert gmul(e1, e1).is_zero()


def test_gmul_cross_terms_cancel():
    m = 1
    y1, e1 = Element.y(m, 1), Element.eta(m, 1)
    assert gmul(y1 + e1, y1 - e1) == y1 ** 2


def test_gmul_graded_commutative_associative():
    rng = random.Random(2)
    for _ in range(40):
        m = rng.randint(1, 3)
        a = random_element(rng, m)
        b = random_element(rng, m)
        c = random_element(rng, m)
        # graded commutativity, checked per homogeneous part
        for da in a.degrees():
            for db in b.degrees():
                pa, pb = degree_part(a, da), degree_part(b, db)
                sign = -1 if (da % 2) and (db % 2) else 1
                assert gmul(pa, pb) == gmul(pb, pa).scale(sign)
        assert gmul(gmul(a, b), c) == gmul(a, gmul(b, c))


@st.composite
def _elements(draw, m):
    """Up to three terms y^a eta_S hbar^e, a_i <= 2, S any subset, e in
    -1..2, with Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(st.integers(0, 2)) for _ in range(m))
        eta = tuple(i for i in range(1, m + 1) if draw(st.booleans()))
        c = draw(st.fractions(-3, 3, max_denominator=4))
        terms[(a, eta)] = HSeries.monomial(draw(st.integers(-1, 2)), c)
    return Element(m, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_gmul_is_the_operator_product(data, m):
    """gmul, the product kernel on derivative-free keys, against the pair
    loop over the monomial reference, and against op_compose; an Element
    equals, and hashes as, the Operator with the same terms."""
    a, b = data.draw(_elements(m)), data.draw(_elements(m))
    C = codec(m)
    expected = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key, sign = mono_mul(ka, kb, C)
            if key is not None:
                _accumulate(expected, key, sign * ca * cb)
    product = gmul(a, b)
    assert type(product) is Element and product.terms == expected
    assert a * b == product == op_compose(a, b)
    op = Operator._from_store(m, dict(a.terms))
    assert op == a and a == op and hash(op) == hash(a)
    assert op_compose(op, b) == product


@st.composite
def _polynomials(draw, m):
    """One to three terms y^a, a_i <= 3, with nonzero Fraction
    coefficients: the f of a CritLocus."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        a = tuple(draw(st.integers(0, 3)) for _ in range(m))
        terms[(a, ())] = draw(st.fractions(-3, 3, max_denominator=4)
                              .filter(bool))
    return Element(m, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_derivations_match_the_generator_reference(data, m):
    """delta, Delta_BV and d/dy_i on elements against the evaluation of
    their operators one generator at a time, which never meets the product
    kernel."""
    X = make_crit_locus(data.draw(_polynomials(m)), m)
    a = data.draw(_elements(m))
    bv = Operator(m, {((0,) * m, (), tuple(int(j == i) for j in range(m)),
                       (i + 1,)): 1 for i in range(m)})
    assert apply_koszul_delta(X, a) == op_apply(koszul_operator(X), a)
    assert bv_apply(X, a) == op_apply(bv, a)
    for i in range(1, m + 1):
        assert a.partial_y(i) == op_apply(Operator.d_y(m, i), a)


def test_derivations_refuse_overflow_and_another_m():
    """delta of a key whose product with df/dy passes the exponent limit is
    refused, one step below it is not; an element of another m is refused."""
    limit = codec(1).limit
    X = make_crit_locus(Element.y(1, 1, 3), 1)
    top = Element(1, {((limit - 2,), (1,)): 1})
    with pytest.raises(ExponentOverflow):
        apply_koszul_delta(X, top)
    below = Element(1, {((limit - 3,), (1,)): 1})
    assert apply_koszul_delta(X, below) == 3 * Element.y(1, 1, limit - 1)
    for apply in (apply_koszul_delta, bv_apply):
        with pytest.raises(ValueError, match="signature mismatch"):
            apply(X, Element.eta(2, 1))


def test_pow_takes_a_natural_exponent():
    y = Element.y(1, 1)
    assert y ** 0 == 1 and y ** 3 == Element.y(1, 1, 3)
    for bad in (-1, 1.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not a natural number"):
            y ** bad


def test_koszul_on_generators():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    assert apply_koszul_delta(X, Element.eta(1, 1)) == 2 * Element.y(1, 1)
    assert apply_koszul_delta(X, Element.y(1, 1)).is_zero()


def test_koszul_two_eta_sign():
    m = 2
    f = Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3
    X = make_crit_locus(f, m)
    a = gmul(Element.eta(m, 1), Element.eta(m, 2))
    expected = (gmul(3 * Element.y(m, 1) ** 2, Element.eta(m, 2))
                - gmul(3 * Element.y(m, 2) ** 2, Element.eta(m, 1)))
    assert apply_koszul_delta(X, a) == expected


def test_koszul_square_zero_random():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 3)
        f = random_element(rng, m, max_ydeg=5, nterms=3)
        f = Element(m, {k: c for (k, c) in f.series().items() if not k[1]})
        if f.is_zero():
            continue
        X = make_crit_locus(f, m)
        a = random_element(rng, m, max_ydeg=3, nterms=3)
        assert apply_koszul_delta(X, apply_koszul_delta(X, a)).is_zero()


def test_koszul_graded_leibniz_random():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(1, 3)
        X = corpus_locus(rng.randrange(3))
        m = X.m
        a = random_element(rng, m)
        b = random_element(rng, m)
        for da in a.degrees():
            pa = degree_part(a, da)
            sign = -1 if da % 2 else 1
            lhs = apply_koszul_delta(X, gmul(pa, b))
            rhs = (gmul(apply_koszul_delta(X, pa), b)
                   + gmul(pa, apply_koszul_delta(X, b)).scale(sign))
            assert lhs == rhs


def test_element_normal_form_uniqueness():
    m = 2
    a = gmul(Element.eta(m, 2), Element.eta(m, 1))
    b = gmul(Element.eta(m, 1), Element.eta(m, 2))
    assert a == -b
    assert (a + b).is_zero()
    # eta indices stored strictly increasing
    (((_, eta), _),) = decoded(b).keys()
    assert eta == (1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: make_crit_locus(Element.const(1, 1), 0),
     "need at least one variable"),
    (lambda: make_crit_locus(Element.y(2, 1) ** 3, 1), "signature mismatch"),
    (lambda: gmul(Element.y(1, 1), Element.y(2, 1)), "signature mismatch"),
], ids=["make_crit_locus-m0", "make_crit_locus-m", "gmul"])
def test_locus_and_product_refuse_a_bad_signature(call, message):
    """``make_crit_locus`` refuses m < 1 and an f in another number of
    variables; ``gmul`` refuses factors of different m."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
