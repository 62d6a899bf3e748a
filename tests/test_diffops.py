import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshift.coefficients import HSeries, _accumulate, _shuffle, codec
from qshift.derham import dr_of
from qshift.diffops import (Operator, Polyvector, _odd_product, op_commutator,
                            op_compose, op_order, schouten, symbol)
from qshift.errors import ArityMismatch, OrderTooLow, ZeroOperator
from qshift.gca import Element, gmul
from qshift.quantise import Quantisation

from generator_oracle import fold, gen_sequence, op_apply
from schouten_oracle import pv_mul_closed_form, schouten_by_words

from conftest import (decoded, degree_part, hbar_component, random_element,
                      random_hseries, random_homogeneous_operator,
                      random_operator, random_polyvector)


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
    euler = op_compose(Element.y(m, 1), Operator.d_y(m, 1))
    assert op_apply(euler, Element.y(m, 1) ** 3) == 3 * Element.y(m, 1) ** 3


def test_compose_heisenberg():
    m = 1
    D = op_compose(Operator.d_y(m, 1), Element.y(m, 1))
    expected = op_compose(Element.y(m, 1), Operator.d_y(m, 1)) + 1
    assert D == expected


def test_compose_odd_pair():
    m = 1
    D = op_compose(Operator.d_eta(m, 1), Element.eta(m, 1))
    expected = (Operator.identity(m)
                - op_compose(Element.eta(m, 1), Operator.d_eta(m, 1)))
    assert D == expected


def test_compose_commuting_multiplications():
    m = 2
    D = op_compose(Element.y(m, 1), Element.y(m, 2))
    assert D == gmul(Element.y(m, 1), Element.y(m, 2))


def test_commutator_canonical_pairs():
    m = 2
    assert op_commutator(Operator.d_y(m, 1), Element.y(m, 1)) \
        == Operator.identity(m)
    assert op_commutator(Operator.d_eta(m, 1), Element.eta(m, 1)) \
        == Operator.identity(m)
    assert op_commutator(Element.y(m, 1), Element.y(m, 2)).is_zero()
    # pairs that meet only from right to left
    assert op_commutator(Element.y(m, 1), Operator.d_y(m, 1)) \
        == Operator.identity(m).scale(-1)
    assert op_commutator(Element.eta(m, 1), Operator.d_eta(m, 1)) \
        == Operator.identity(m)


def test_order_examples():
    m = 2
    assert op_order(op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1))) == 2
    assert op_order(Element.y(m, 1) ** 3) == 0
    mixed = (op_compose(Element.y(m, 1), Operator.d_y(m, 1))
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
    D = op_compose(Element.y(m, 1), Operator.d_y(m, 1)) + 1
    s = symbol(D, 1)
    assert decoded(s) == {(((1,), (), (1,), ()), 0): 1}
    s2 = symbol(op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1)), 2)
    assert decoded(s2) == {(((0,), (), (1,), (1,)), 0): 1}
    assert symbol(Element.y(m, 1) ** 2, 1).is_zero()
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
        rhs = pv_mul_closed_form(symbol(D1, k), symbol(D2, l))
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
    """The arity-(p + q) part of the composite of lifts is the free
    graded-commutative product: the closed form on seeded random
    polyvectors."""
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randint(1, 3)
        P = random_polyvector(rng, m, rng.randint(0, 3))
        Q = random_polyvector(rng, m, rng.randint(0, 3))
        arity = P.arity + Q.arity
        got = symbol(op_compose(P.lift(), Q.lift()).order_part(arity), arity)
        assert got == pv_mul_closed_form(P, Q)


def test_polyvector_sum_with_zero_keeps_the_arity():
    m = 1
    P = Polyvector(m, 1, {((0,), (), (1,), ()): 1})
    zero = Polyvector(m, 3)
    assert zero.arity == 0
    for total in (P + zero, zero + P, P - zero):
        assert total == P
        assert total.arity == 1
    assert (zero - P).arity == 1


def test_polyvector_rational_is_the_arity_zero_polyvector():
    """A rational is the arity-0 polyvector: P +- 0 is P, and P +- c with
    c != 0 needs arity 0, in either order."""
    m = 1
    P = Polyvector(m, 1, {((0,), (), (1,), ()): 1})
    for total in (P + 0, 0 + P, P - 0, P + Fraction(0)):
        assert total == P and total.arity == 1
    assert 0 - P == -P and (0 - P).arity == 1
    for bad in (lambda: P + 1, lambda: 1 + P, lambda: P - 1, lambda: 1 - P,
                lambda: P + Fraction(1, 2)):
        with pytest.raises(ArityMismatch):
            bad()
    Q = Polyvector(m, 0, {((1,), (), (0,), ()): 1})
    unit = Polyvector(m, 0, {((0,), (), (0,), ()): 1})
    assert Q + 1 == 1 + Q == Q + unit and (Q - 1).arity == (1 - Q).arity == 0
    assert (Polyvector(m, 2) + 1).arity == 0


def test_polyvector_equality_goes_through_the_coercion():
    """As for every store, == reads a rational as the arity-0 polyvector:
    a zero built with any arity is 0 and the arity-0 unit is 1.  Zeros
    built with different arities are equal and hash alike, the terms fix
    the arity of a nonzero one, and a polyvector never equals the operator
    of its terms."""
    m = 1
    unit = Polyvector(m, 0, {((0,), (), (0,), ()): 1})
    P = Polyvector(m, 1, {((0,), (), (1,), ()): 1})
    assert Polyvector(m, 1) == 0 and 0 == Polyvector(m, 1)
    assert unit == 1 and unit == Fraction(1) and unit != 2 and P != 1
    assert Polyvector(m, 1) == Polyvector(m, 3) == Polyvector.zero(m)
    assert hash(Polyvector(m, 1)) == hash(Polyvector(m, 3))
    assert P != P.lift() and P.lift() != P
    assert len({P, Polyvector(m, 1, {((0,), (), (1,), ()): 1}), unit}) == 2


def test_element_with_another_operator_is_an_operator():
    """An Element with an operator of another type, in either order, sums
    and composes to an Operator, which prints its derivatives; two
    Elements, or an Element and a rational, stay an Element."""
    m = 1
    y, dy = Element.y(m, 1), Operator.d_y(m, 1)
    delta = Quantisation(m, {2: op_compose(dy, Operator.d_eta(m, 1))})
    for mixed in (y + dy, dy + y, y - dy, dy - y, y + delta, delta + y,
                  y - delta, y * dy, dy * y, y * delta):
        assert type(mixed) is Operator
    assert str(y + dy) == "Dy1 + y1"
    assert y * dy == op_compose(y, dy) and dy * y == op_compose(dy, y)
    for same in (y + y, y - y, y * y, y + 1, 1 - y, 2 * y, y ** 2):
        assert type(same) is Element


_OPERATOR_KIND = ("Element", "Operator", "Quantisation")
_STORE_TYPES = {
    "HSeries": lambda m, c: HSeries.monomial(1, c),
    "Element": lambda m, c: Element(m, {((1,) * m, (m,)): c}),
    "Operator": lambda m, c: Operator(m, {((1,) * m, (), (0,) * m, (m,)): c}),
    "Quantisation": lambda m, c: Quantisation(m, {2: c * Operator.d_eta(m, m)}),
    "Polyvector": lambda m, c: Polyvector(m, 1, {((0,) * m, (), (0,) * m,
                                                  (m,)): c}),
    "DRWord": lambda m, c: dr_of(c * Element.eta(m, m)),
}


@settings(max_examples=200, deadline=None)
@given(kinds=st.tuples(*[st.sampled_from(sorted(_STORE_TYPES))] * 2),
       ms=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       cs=st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 2))
def test_store_arithmetic_mixes_one_kind_and_one_m(kinds, ms, cs):
    """Every pair of store types through +, - and ==: Element, Operator and
    Quantisation mix, any other two types are refused with TypeError, and
    two stores of one kind but different m with ValueError; == holds only
    for one kind, one m and the same terms."""
    a, b = (_STORE_TYPES[k](m, c) for k, m, c in zip(kinds, ms, cs))
    one_kind = kinds[0] == kinds[1] or set(kinds) <= set(_OPERATOR_KIND)
    one_m = a.m == b.m
    for sign, combine in ((1, lambda: a + b), (-1, lambda: a - b)):
        if not one_kind:
            with pytest.raises(TypeError):
                combine()
        elif not one_m:
            with pytest.raises(ValueError, match="signature mismatch"):
                combine()
        else:
            expected = dict(a.terms)
            for k, c in b.terms.items():
                _accumulate(expected, k, sign * c)
            assert combine().terms == expected
    assert (a == b) == (b == a) == (one_kind and one_m and a.terms == b.terms)


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
        lhs = schouten(P, pv_mul_closed_form(Q, R))
        rhs = (pv_mul_closed_form(schouten(P, Q), R)
               + pv_mul_closed_form(Q, schouten(P, R)).scale(sign))
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
        witnesses = ([Element.y(m, i + 1) for i in range(m)]
                     + [Element.eta(m, i + 1) for i in range(m)])
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
            a = random_element(rng, m)
            iterated = D
            for _ in range(k + 1):
                iterated = op_commutator(a, iterated)
            assert iterated.is_zero()
        checked += 1


def test_hbar_components():
    m = 1
    D = Operator.d_y(m, 1).scale(HSeries({0: 1, 2: 3}))
    assert hbar_component(D, 2) == Operator.d_y(m, 1).scale(3)
    assert hbar_component(D, 1).is_zero()
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
        m, fold(gen_sequence(C.encode(*k1), C), {C.encode(*k2): 1}, C))


def test_odd_product_matches_fold_on_every_mask_pair():
    """The odd-part table folds only d_eta generators; on every pair of odd
    masks for m <= 3 it gives the terms of the general generator fold, in
    the same order."""
    for m in (1, 2, 3):
        C = codec(m)
        for left in range(1 << 2 * m):
            S, T = left & C.eta, left & C.deta
            for right in range(1 << 2 * m):
                U, V = right & C.eta, right & C.deta
                expected = []
                for k, s in fold(gen_sequence(T, C), {U: 1}, C).items():
                    u, t = k & C.eta, k & C.deta
                    if not (S & u or t & V):
                        expected.append((S | u | t | V,
                                         s * _shuffle(S, u) * _shuffle(t, V)))
                assert _odd_product(left, right) == tuple(expected)


# ---------------------------------------------------------------------------
# Multi-term hbar coefficients against the fold + HSeries product composition
# ---------------------------------------------------------------------------

def _reference_compose(D1, D2):
    m = D1.m
    C = codec(m)
    out = {}
    for k1, c1 in D1.series().items():
        gens = gen_sequence(C.encode(*k1), C)
        for k2, c2 in D2.series().items():
            c = c1 * c2
            for key, n in fold(gens, {C.encode(*k2): 1}, C).items():
                _accumulate(out, C.decode(key)[:4], c.scale(n))
    return Operator(m, out)


def _reference_commutator(D1, D2):
    out = Operator.zero(D1.m)
    for d1 in D1.degrees():
        p1 = degree_part(D1, d1)
        for d2 in D2.degrees():
            p2 = degree_part(D2, d2)
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
        while len(c.terms) < 2:
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
        arity = P.arity + Q.arity
        _assert_clean(op_compose(P.lift(), Q.lift()).order_part(arity))
        _assert_clean(schouten(P, Q))


def _hseries_st(values=st.integers(-3, 3)):
    return st.dictionaries(st.integers(-2, 2), values.filter(bool),
                           min_size=1, max_size=3).map(HSeries)


def _operator_st(m, max_exp=2, values=st.integers(-3, 3)):
    return st.dictionaries(_key_st(m, max_exp), _hseries_st(values),
                           max_size=3).map(lambda t: Operator(m, t))


def _fraction_operator_pair(m):
    """Two operators with exponents up to 4 and Laurent-hbar coefficients
    whose values are Fractions."""
    ops = _operator_st(m, 4, st.fractions(-3, 3, max_denominator=4))
    return st.tuples(ops, ops)


_OPERATOR_PAIRS = st.integers(1, 3).flatmap(_fraction_operator_pair)


def _mono(m, key, c=1):
    return Operator(m, {key: c})


@settings(max_examples=120, deadline=None)
@given(_OPERATOR_PAIRS)
@example((Operator(2, {((0, 0), (1,), (0, 0), ()): 1,              # odd
                       ((1, 0), (), (0, 0), (1, 2)): 2}),          # even
          Operator(2, {((0, 0), (), (1, 0), (1,)): 1,              # odd
                       ((0, 1), (2,), (0, 0), ()): HSeries({-1: 3, 1: -1})})))
# eta1 deta1 against y1 eta1 deta1: no leading term (S meets U, T meets V),
# and the contraction eta1 deta1 carries every odd bit of the pair
@example((_mono(1, ((0,), (1,), (0,), (1,))),
          _mono(1, ((1,), (1,), (0,), (1,)), HSeries({-1: Fraction(1, 2)}))))
# [y dy^2, y^2 dy]: a d_y meets a y in both directions
@example((_mono(1, ((1,), (), (2,), ())), _mono(1, ((2,), (), (1,), ()), 3)))
# [y1 eta1 dy2, y1 deta2]: meets in neither direction, so the pair is skipped
@example((_mono(2, ((1, 0), (1,), (0, 1), ()), Fraction(2, 3)),
          _mono(2, ((1, 0), (), (0, 0), (2,)), HSeries({0: 1, 2: -1}))))
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


@pytest.mark.parametrize("call, exc, message", [
    (lambda: op_compose(Operator.zero(1), Operator.zero(2)), ValueError,
     "signature mismatch"),
    (lambda: Polyvector(2, 2, {((0, 0), (), (1, 0), ()): 1}), ArityMismatch,
     "monomial of arity 1 in arity-2 polyvector"),
], ids=["op_compose", "polyvector-arity"])
def test_operators_refuse_a_bad_signature(call, exc, message):
    """``op_compose`` refuses operators of different m, and a polyvector
    refuses a monomial whose arity is not its own."""
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message
