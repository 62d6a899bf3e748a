import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshift.coefficients import HSeries, _accumulate, codec
from qshift.diffops import (Operator, Polyvector, _fold, _gen_sequence,
                            op_apply, op_commutator, op_compose, op_order,
                            pv_mul, schouten, symbol)
from qshift.errors import OrderTooLow, ZeroOperator
from qshift.gca import Element, gmul

from schouten_oracle import pv_mul_closed_form, schouten_by_words

from conftest import (decoded, random_element, random_hseries,
                      random_homogeneous_operator, random_operator,
                      random_polyvector)


def test_apply_contract_then_differentiate():
    m = 1
    D = op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1))
    a = gmul(Element.y(m, 1), Element.eta(m, 1))
    assert op_apply(D, a) == Element.one(m)


def test_apply_missing_eta_kills():
    m = 2
    assert op_apply(Operator.d_eta(m, 1), Element.y(m, 2)).is_zero()


def test_apply_euler_operator():
    m = 1
    euler = op_compose(Operator.mult(Element.y(m, 1)), Operator.d_y(m, 1))
    assert op_apply(euler, Element.y(m, 1) ** 3) == 3 * Element.y(m, 1) ** 3


def test_compose_heisenberg():
    m = 1
    D = op_compose(Operator.d_y(m, 1), Operator.mult(Element.y(m, 1)))
    expected = op_compose(Operator.mult(Element.y(m, 1)), Operator.d_y(m, 1)) + 1
    assert D == expected


def test_compose_odd_pair():
    m = 1
    D = op_compose(Operator.d_eta(m, 1), Operator.mult(Element.eta(m, 1)))
    expected = (Operator.identity(m)
                - op_compose(Operator.mult(Element.eta(m, 1)), Operator.d_eta(m, 1)))
    assert D == expected


def test_compose_commuting_multiplications():
    m = 2
    D = op_compose(Operator.mult(Element.y(m, 1)), Operator.mult(Element.y(m, 2)))
    assert D == Operator.mult(gmul(Element.y(m, 1), Element.y(m, 2)))


def test_commutator_canonical_pairs():
    m = 2
    assert op_commutator(Operator.d_y(m, 1), Operator.mult(Element.y(m, 1))) \
        == Operator.identity(m)
    assert op_commutator(Operator.d_eta(m, 1), Operator.mult(Element.eta(m, 1))) \
        == Operator.identity(m)
    assert op_commutator(Operator.mult(Element.y(m, 1)),
                         Operator.mult(Element.y(m, 2))).is_zero()


def test_order_examples():
    m = 2
    assert op_order(op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1))) == 2
    assert op_order(Operator.mult(Element.y(m, 1) ** 3)) == 0
    mixed = (op_compose(Operator.mult(Element.y(m, 1)), Operator.d_y(m, 1))
             + Operator.d_eta(m, 2))
    assert op_order(mixed) == 1
    with pytest.raises(ZeroOperator):
        op_order(Operator.zero(m))


def test_composition_application_compat_random():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 3)
        D1 = random_operator(rng, m, max_order=4)
        D2 = random_operator(rng, m, max_order=4)
        a = random_element(rng, m, max_ydeg=3)
        assert op_apply(op_compose(D1, D2), a) == op_apply(D1, op_apply(D2, a))


def test_commutator_order_drop_random():
    rng = random.Random(6)
    for _ in range(60):
        m = rng.randint(1, 2)
        D1 = random_operator(rng, m)
        D2 = random_operator(rng, m)
        C = op_commutator(D1, D2)
        if C.is_zero() or D1.is_zero() or D2.is_zero():
            continue
        assert op_order(C) <= op_order(D1) + op_order(D2) - 1


def test_symbol_drops_lower_order():
    m = 1
    D = op_compose(Operator.mult(Element.y(m, 1)), Operator.d_y(m, 1)) + 1
    s = symbol(D, 1)
    assert decoded(s) == {(((1,), (), (1,), ()), 0): 1}
    s2 = symbol(op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1)), 2)
    assert decoded(s2) == {(((0,), (), (1,), (1,)), 0): 1}
    assert symbol(Operator.mult(Element.y(m, 1) ** 2), 1).is_zero()
    with pytest.raises(OrderTooLow):
        symbol(op_compose(Operator.d_y(m, 1), Operator.d_y(m, 1)), 1)


def test_symbol_homomorphism_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        l = rng.randint(1, 2)
        D1 = random_homogeneous_operator(rng, m, k, rng.randint(0, 1))
        D2 = random_homogeneous_operator(rng, m, l, rng.randint(0, 1))
        if D1.is_zero() or D2.is_zero():
            continue
        lhs = symbol(op_compose(D1, D2), k + l)
        rhs = pv_mul(symbol(D1, k), symbol(D2, l))
        assert lhs == rhs


def test_schouten_biderivation_example():
    m = 1
    P = Polyvector(m, 2, {((0,), (), (2,), ()): HSeries.const(1)})
    Q = Polyvector(m, 0, {((2,), (), (0,), ()): HSeries.const(1)})
    expected = Polyvector(m, 1, {((1,), (), (1,), ()): HSeries.const(4)})
    assert schouten(P, Q) == expected


def test_schouten_disjoint_and_scalar():
    m = 2
    P = Polyvector(m, 1, {((0, 0), (), (1, 0), ()): HSeries.const(1)})
    Q = Polyvector(m, 0, {((0, 1), (), (0, 0), ()): HSeries.const(1)})
    assert schouten(P, Q).is_zero()
    one = Polyvector(m, 0, {((0, 0), (), (0, 0), ()): HSeries.const(1)})
    R = random_polyvector(random.Random(0), m, 2)
    assert schouten(R, one).is_zero()
    assert schouten(one, R).is_zero()


def test_schouten_equals_symbol_of_commutator_random():
    """The bracket, the principal symbol of the commutator of lifts,
    against the graded Leibniz expansion on generator words."""
    rng = random.Random(8)
    for _ in range(80):
        m = rng.randint(1, 2)
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        P = random_polyvector(rng, m, p)
        Q = random_polyvector(rng, m, q)
        assert schouten(P, Q) == schouten_by_words(P, Q)


def test_pv_mul_equals_top_order_of_composite_random():
    """The product, the arity-(p + q) part of the composite of lifts,
    against the closed form on seeded random polyvectors."""
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randint(1, 3)
        P = random_polyvector(rng, m, rng.randint(0, 3))
        Q = random_polyvector(rng, m, rng.randint(0, 3))
        got = pv_mul(P, Q)
        assert got == pv_mul_closed_form(P, Q)
        assert got.arity == P.arity + Q.arity


def test_polyvector_sum_with_zero_keeps_the_arity():
    m = 1
    P = Polyvector(m, 1, {((0,), (), (1,), ()): 1})
    zero = Polyvector.zero(m, 3)
    for total in (P + zero, zero + P, P - zero):
        assert total == P
        assert total.arity == 1
    assert (zero - P).arity == 1


def _pv_degree(P):
    degs = {codec(P.m).degree(k) for k in P.terms}
    assert len(degs) <= 1
    return degs.pop() if degs else 0


def test_schouten_graded_antisymmetry_and_jacobi():
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        m = rng.randint(1, 2)
        P = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        Q = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        R = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        if P.is_zero() or Q.is_zero() or R.is_zero():
            continue
        dp, dq, dr = _pv_degree(P), _pv_degree(Q), _pv_degree(R)
        sign = -1 if (dp % 2) and (dq % 2) else 1
        assert schouten(P, Q) == schouten(Q, P).scale(-sign)
        # graded Jacobi: [P,[Q,R]] = [[P,Q],R] + (-1)^{|P||Q|}[Q,[P,R]]
        s = -1 if (dp % 2) and (dq % 2) else 1
        lhs = schouten(P, schouten(Q, R))
        rhs = schouten(schouten(P, Q), R) + schouten(Q, schouten(P, R)).scale(s)
        assert lhs == rhs
        checked += 1


def test_schouten_leibniz_random():
    rng = random.Random(10)
    checked = 0
    while checked < 40:
        m = rng.randint(1, 2)
        P = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        Q = random_polyvector(rng, m, rng.randint(0, 2), nterms=1)
        R = random_polyvector(rng, m, rng.randint(0, 2), nterms=1)
        if P.is_zero() or Q.is_zero() or R.is_zero():
            continue
        dp, dq = _pv_degree(P), _pv_degree(Q)
        sign = -1 if (dp % 2) and (dq % 2) else 1
        lhs = schouten(P, pv_mul(Q, R))
        rhs = pv_mul(schouten(P, Q), R) + pv_mul(Q, schouten(P, R)).scale(sign)
        assert lhs == rhs
        checked += 1


def test_inductive_filtration_equivalence():
    """Normal-form derivative degree k matches the commutator-defined level:
    (k+1)-fold commutators with multiplications vanish, some k-fold does not."""
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        m = rng.randint(1, 2)
        D = random_operator(rng, m, max_order=3, nterms=2)
        if D.is_zero():
            continue
        k = op_order(D)
        current = D
        witnesses = ([Operator.mult(Element.y(m, i + 1)) for i in range(m)]
                     + [Operator.mult(Element.eta(m, i + 1)) for i in range(m)])
        # some k-fold iterated commutator with generators is nonzero
        frontier = [D]
        for _ in range(k):
            frontier = [op_commutator(w, u) for u in frontier for w in witnesses]
            frontier = [u for u in frontier if not u.is_zero()]
        assert frontier, "operator dropped filtration level early"
        assert all(op_order(u) == 0 for u in frontier)
        # and every (k+1)-fold one vanishes
        for u in frontier:
            for w in witnesses:
                assert op_commutator(w, u).is_zero()
        for _ in range(3):
            a = Operator.mult(random_element(rng, m))
            iterated = D
            for _ in range(k + 1):
                iterated = op_commutator(a, iterated)
            assert iterated.is_zero()
        checked += 1


def test_hbar_components():
    m = 1
    D = Operator.d_y(m, 1).scale(HSeries({0: 1, 2: 3}))
    assert D.hbar_component(2) == Operator.d_y(m, 1).scale(3)
    assert D.hbar_component(1).is_zero()
    assert D.hbar_exponents() == {0, 2}


# ---------------------------------------------------------------------------
# The closed-form monomial product against the generator fold
# ---------------------------------------------------------------------------

def _key_st(m, max_exp=3):
    vec = st.tuples(*[st.integers(0, max_exp)] * m)
    odd = st.sets(st.integers(1, m)).map(lambda s: tuple(sorted(s)))
    return st.tuples(vec, odd, vec, odd)


_KEY_PAIRS = st.integers(1, 3).flatmap(
    lambda m: st.tuples(st.just(m), _key_st(m), _key_st(m)))


@settings(max_examples=250, deadline=None)
@given(_KEY_PAIRS)
@example((1, ((0,), (1,), (0,), ()), ((0,), (1,), (0,), ())))  # eta1 o eta1
@example((1, ((0,), (), (0,), (1,)), ((0,), (), (0,), (1,))))  # deta1 o deta1
@example((2, ((1, 0), (2,), (2, 1), (1, 2)), ((3, 2), (1, 2), (0, 1), (2,))))
def test_mono_product_matches_fold(case):
    """The product kernel on two one-term operators against the generator
    fold."""
    m, k1, k2 = case
    product = op_compose(Operator(m, {k1: 1}), Operator(m, {k2: 1}))
    C = codec(m)
    assert product == Operator._from_store(
        m, _fold(_gen_sequence(C.encode(*k1), C), {C.encode(*k2): 1}, C))


# ---------------------------------------------------------------------------
# Multi-term hbar coefficients against the fold + HSeries product composition
# ---------------------------------------------------------------------------

def _reference_compose(D1, D2):
    m = D1.m
    C = codec(m)
    out = {}
    for k1, c1 in D1.series().items():
        gens = _gen_sequence(C.encode(*k1), C)
        for k2, c2 in D2.series().items():
            c = c1 * c2
            for key, n in _fold(gens, {C.encode(*k2): 1}, C).items():
                _accumulate(out, C.decode(key)[:4], c.scale(n))
    return Operator(m, out)


def _reference_commutator(D1, D2):
    out = Operator.zero(D1.m)
    for d1 in D1.degrees():
        p1 = D1.degree_part(d1)
        for d2 in D2.degrees():
            p2 = D2.degree_part(d2)
            sign = -1 if (d1 % 2) and (d2 % 2) else 1
            term = _reference_compose(p1, p2) - _reference_compose(p2, p1).scale(sign)
            out = out + term
    return out


def _laurent_operator(rng, m, max_order=3, nterms=3):
    """Random operator whose coefficients have 2-3 hbar terms, with negative
    exponents and non-integer rationals."""
    D = random_operator(rng, m, max_order=max_order, nterms=nterms)
    terms = {}
    for key in D.series():
        c = HSeries()
        while len(c.coeffs) < 2:
            c = random_hseries(rng, min_exp=-2, max_exp=2, nterms=3)
        terms[key] = c.scale(Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2, 5))))
    return Operator(m, terms)


def _assert_clean(X):
    """The canonical coefficient model: every term is keyed by one packed
    int (monomial and hbar exponent), and its coefficient is a nonzero int
    or a Fraction whose denominator is greater than 1."""
    for k, c in X.terms.items():
        assert type(k) is int
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1)


def _top_symbol(D):
    return symbol(D.order_part(op_order(D)), op_order(D))


def test_compose_and_commutator_multi_term_hbar():
    rng = random.Random(12)
    for _ in range(80):
        m = rng.randint(1, 3)
        D1 = _laurent_operator(rng, m)
        D2 = _laurent_operator(rng, m)
        got = op_compose(D1, D2)
        assert got == _reference_compose(D1, D2)
        _assert_clean(got)
        got = op_commutator(D1, D2)
        assert got == _reference_commutator(D1, D2)
        _assert_clean(got)
        a, b = ({k[:2]: c for k, c in D.series().items()} for D in (D1, D2))
        a, b = Element(m, a), Element(m, b)
        _assert_clean(gmul(a, b))
        _assert_clean(op_apply(D1, a))
        P, Q = _top_symbol(D1), _top_symbol(D2)
        _assert_clean(pv_mul(P, Q))
        _assert_clean(schouten(P, Q))


def _hseries_st():
    return st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3).map(HSeries)


def _operator_st(m):
    return st.dictionaries(_key_st(m, max_exp=2), _hseries_st(),
                           max_size=3).map(lambda t: Operator(m, t))


_OPERATOR_PAIRS = st.integers(1, 2).flatmap(
    lambda m: st.tuples(_operator_st(m), _operator_st(m)))


@settings(max_examples=60, deadline=None)
@given(_OPERATOR_PAIRS)
@example((Operator(2, {((0, 0), (1,), (0, 0), ()): 1,              # odd
                       ((1, 0), (), (0, 0), (1, 2)): 2}),          # even
          Operator(2, {((0, 0), (), (1, 0), (1,)): 1,              # odd
                       ((0, 1), (2,), (0, 0), ()): HSeries({-1: 3, 1: -1})})))
def test_commutator_matches_pairwise_graded_definition(pair):
    """[D1, D2] = Sum over monomial pairs of k1 o k2 - (-1)^(|k1||k2|) k2 o k1."""
    D1, D2 = pair
    m = D1.m
    expected = Operator.zero(m)
    for k1, c1 in D1.series().items():
        for k2, c2 in D2.series().items():
            t1, t2 = Operator(m, {k1: c1}), Operator(m, {k2: c2})
            sign = -1 if len(k1[1] + k1[3]) % 2 and len(k2[1] + k2[3]) % 2 else 1
            expected = expected + op_compose(t1, t2) - op_compose(t2, t1).scale(sign)
    assert op_commutator(D1, D2) == expected


_OPERATOR_TRIPLES = st.integers(1, 2).flatmap(
    lambda m: st.tuples(_operator_st(m), _operator_st(m), _operator_st(m)))


@settings(max_examples=40, deadline=None)
@given(_OPERATOR_TRIPLES)
def test_compose_associative(ops):
    A, B, C = ops
    assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


# ---------------------------------------------------------------------------
# Printing: one pinned string per value type
# ---------------------------------------------------------------------------

def test_str_and_repr_pinned():
    """The printed forms that reports and messages read: a coefficient is
    parenthesised only when it has several terms, and monomials list y,
    eta, Dy, then Deta."""
    poly = HSeries({0: 3, 2: 1})
    assert (str(poly), repr(poly)) == ("3 + h^2", "HSeries(3 + h^2)")
    assert str(HSeries({-1: 1})) == "h^-1"
    assert str(HSeries.const(Fraction(-1, 2))) == "-1/2"
    assert str(HSeries.zero()) == "0"
    terms = {((1, 0), (), (0, 1), ()): poly,
             ((0, 0), (), (0, 0), (1,)): Fraction(-1, 2)}
    D = Operator(2, {**terms, ((0, 2), (1,), (0, 0), ()): HSeries({-1: 1})})
    text = "-1/2*Deta1 + h^-1*y2^2*eta1 + (3 + h^2)*y1*Dy2"
    assert (str(D), repr(D)) == (text, f"Operator({text})")
    assert str(Operator.zero(2)) == "0"
    P = Polyvector(2, 1, terms)
    text = "Polyvector(arity=1, -1/2*Deta1 + (3 + h^2)*y1*Dy2)"
    assert (str(P), repr(P)) == (text, text)
    assert repr(Polyvector.zero(2)) == "Polyvector(arity=0, 0)"
    a = Element(2, {((1, 0), (1,)): poly, ((0, 0), ()): Fraction(-1, 2),
                    ((0, 1), ()): HSeries({-1: 1})})
    text = "-1/2 + h^-1*y2 + (3 + h^2)*y1*eta1"
    assert (str(a), repr(a)) == (text, f"Element({text})")
    assert str(Element.zero(1)) == "0"
