"""The packed monomial keys: the codec round trip, the product kernel on
packed keys against the generator-by-generator reference, and overflow
refusal at the field limit."""

import json
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import cli
from qshift.coefficients import FIELD_BITS, HSeries, codec
from qshift.diffops import Operator, _leibniz_steps, op_commutator, op_compose
from qshift.errors import ExponentOverflow
from qshift.gca import Element, gmul

from generator_oracle import op_apply

LIMIT = 1 << (FIELD_BITS - 1)


def _odd(m):
    return st.sets(st.integers(1, m)).map(lambda s: tuple(sorted(s)))


def _exps(m, top):
    # the field limit itself is drawn often, not left to chance
    entry = st.one_of(st.integers(0, top), st.just(top))
    return st.tuples(*[entry] * m)


def _monomial(m, top=LIMIT - 1):
    return st.tuples(_exps(m, top), _odd(m), _exps(m, top), _odd(m))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), _monomial(m), st.integers(-40, 40))))
def test_codec_round_trip(case):
    """encode and decode are inverse for m = 1..3, negative hbar exponents
    and exponents at the field limit; the constructor boundary and
    ``series()`` give the tuples back."""
    m, (a, eta, b, deta), e = case
    C = codec(m)
    key = C.encode(a, eta, b, deta, e)
    assert C.decode(key) == (a, eta, b, deta, e)
    assert key >> C.hbar_shift == e
    assert C.degree(key) == len(deta) - len(eta)
    assert C.order(key) == sum(b) + len(deta)
    op = Operator(m, {(a, eta, b, deta): HSeries.monomial(e, 3)})
    assert op.terms == {key: 3}
    assert op.series() == {(a, eta, b, deta): HSeries.monomial(e, 3)}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, codec(m).hbar - 1), st.integers(-40, 40))))
def test_order_matches_the_decoded_key(case):
    """``order`` reads |b| + |T| off any key, whatever its fields hold, as
    ``decode`` does, for m = 1..3 and negative hbar exponents."""
    m, mono, e = case
    C = codec(m)
    key = mono + (e << C.hbar_shift)
    _, _, b, deta, _ = C.decode(key)
    assert C.order(key) == sum(b) + len(deta)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), _exps(m, LIMIT // 2 - 1), _exps(m, LIMIT // 2 - 1),
    st.integers(-9, 9), st.integers(-9, 9))))
def test_even_parts_add(case):
    """The y fields and hbar exponents of a product are the sums of the
    factors' keys, without a carry between fields."""
    m, a1, a2, e1, e2 = case
    C = codec(m)
    total = C.encode(a1, e=e1) + C.encode(a2, e=e2)
    assert C.check(total) == C.encode(tuple(map(sum, zip(a1, a2))), e=e1 + e2)


def _term(m, max_exp):
    return st.tuples(_exps(m, max_exp), _odd(m), _exps(m, max_exp), _odd(m),
                     st.integers(-3, 3).filter(bool), st.integers(-1, 2))


def _operator(m, terms):
    return Operator(m, {(a, eta, b, deta): HSeries.monomial(e, c)
                        for a, eta, b, deta, c, e in terms})


def _element(m, terms):
    return Element(m, {(a, eta): HSeries.monomial(e, c)
                       for a, eta, _, _, c, e in terms})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(_term(3, 2), min_size=1, max_size=4),
       st.lists(_term(3, 2), min_size=1, max_size=4),
       st.lists(_term(3, 3), min_size=1, max_size=4))
def test_compose_with_leibniz_pairs_matches_op_apply(i, left, right, probe):
    """In m = 3, L o R applied to an element agrees with applying R, then
    L, one generator at a time, for operators with a d_y_i in L meeting a
    y_i in R, so that the product kernel takes its Leibniz path."""
    m = 3
    a, eta, b, deta, c, e = left[0]
    left[0] = (a, eta, b[:i - 1] + (2,) + b[i:], deta, c, e)
    a, eta, b, deta, c, e = right[0]
    right[0] = (a[:i - 1] + (2,) + a[i:], eta, b, deta, c, e)
    L, R, x = _operator(m, left), _operator(m, right), _element(m, probe)
    assert op_apply(op_compose(L, R), x) == op_apply(L, op_apply(R, x))


def _leibniz(C, kl, kr, shared, base, v):
    """The Leibniz expansion as the product kernel once computed it per
    pair, kept as the oracle for its table: the terms of v y^a d_y^b o
    y^c d_y^d for the keys ``kl`` and ``kr`` whose leading term is v at
    ``base``, per variable in ``shared`` (the y-field guard bits where b_i
    and c_i are both nonzero) the terms j = 0..min(b_i, c_i), which step
    the y_i and d_y_i fields down together by j, times
    C(b_i, j) c_i!/(c_i - j)!."""
    field = C.field
    terms = [(base, v)]
    while shared:
        low = shared & -shared
        shared ^= low
        yoff, doff, step = C.shared[low]
        b, c = kl >> doff & field, kr >> yoff & field
        terms = [(k - j * step, n * comb(b, j) * perm(c, j))
                 for k, n in terms for j in range(min(b, c) + 1)]
    return terms


def _near_limit(m):
    """Per variable a (d_y in L, y in R) pair with one of the two within 4
    of the field limit and the other at most 3."""
    big, small = st.integers(LIMIT - 4, LIMIT - 1), st.integers(0, 3)
    pair = st.one_of(st.tuples(big, small), st.tuples(small, big),
                     st.tuples(small, small))
    return st.lists(pair, min_size=m, max_size=m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), _near_limit(m), _exps(m, 3), _exps(m, 3),
    st.integers(-5, 5).filter(bool))))
def test_leibniz_table_matches_the_per_pair_expansion(case):
    """A table entry, keyed by L's d_y fields and R's y fields, gives the
    terms of the per-pair expansion, with exponents near 2^15 - 1."""
    m, pairs, a, d, v = case
    C = codec(m)
    b, c = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    kl, kr = C.encode(a, (), b), C.encode(c, (), d)
    shared = (((kl & C.dy_block) + C.dy_lows & C.dy_guards) >> C.dy_to_y
              & ((kr & C.y_block) + C.y_lows & C.y_guards))
    base = (kl & ~C.odd) + (kr & ~C.odd)
    steps = _leibniz_steps(C, kl & C.dy_block | kr & C.y_block)
    assert sorted((base - step, v * n) for step, n in steps) == \
        sorted(_leibniz(C, kl, kr, shared, base, v))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(_term(m, 2), min_size=1, max_size=2),
    st.lists(_term(m, 2), min_size=1, max_size=2),
    st.lists(_term(m, 2), min_size=1, max_size=2))))
def test_compose_near_the_limit_matches_op_apply(case):
    """L o R applied to an element agrees with applying R, then L, when R's
    y exponents sit near 2^15 - 1 and L has d_y to pass through them: the
    Leibniz table with large multipliers."""
    m, left, right, probe = case
    a, eta, b, deta, cl, e = left[0]
    left[0] = (a, eta, (b[0] + 1,) + b[1:], deta, cl, e)
    right = [(tuple(LIMIT - 5 - x for x in a), eta, b, deta, cr, e)
             for a, eta, b, deta, cr, e in right]
    L, R, x = _operator(m, left), _operator(m, right), _element(m, probe)
    assert op_apply(op_compose(L, R), x) == op_apply(L, op_apply(R, x))


def test_leibniz_path_refuses_overflow():
    """A pair whose d_y in L meets a y in R takes the Leibniz path; a sum
    of keys that reaches the limit there is still refused, in the y fields
    and in the d_y fields."""
    m, half = 1, LIMIT // 2
    with pytest.raises(ExponentOverflow):
        op_compose(Operator(m, {((half,), (), (1,), ()): 1}),
                   Element.y(m, 1, half))
    with pytest.raises(ExponentOverflow):
        op_compose(Operator(m, {((0,), (), (LIMIT - 1,), ()): 1}),
                   Operator(m, {((1,), (), (1,), ()): 1}))


def test_field_limit_is_accepted_and_refused_beyond():
    C = codec(2)
    top = Element.y(2, 1, LIMIT - 1)
    assert C.decode(next(iter(top.terms)))[0] == (LIMIT - 1, 0)
    with pytest.raises(ExponentOverflow):
        Element.y(2, 1, LIMIT)
    with pytest.raises(ExponentOverflow):
        C.encode((0, 0), (), (LIMIT, 0))
    half = Element.y(2, 2, LIMIT // 2)
    assert gmul(half, Element.y(2, 2, LIMIT // 2 - 1)) == Element.y(2, 2, LIMIT - 1)
    with pytest.raises(ExponentOverflow):
        gmul(half, half)


def test_kernel_refuses_overflow_in_y_and_d_y_fields():
    """Sums of fields at the limit are refused, never wrapped into the next
    field; the Leibniz terms below the limit are not affected."""
    m = 1
    top = (LIMIT - 1,)
    dy_top = Operator(m, {((0,), (), top, ()): 1})
    y_top = Element.y(m, 1, LIMIT - 1)
    with pytest.raises(ExponentOverflow):
        op_compose(dy_top, Operator.d_y(m, 1))
    with pytest.raises(ExponentOverflow):
        op_compose(Element.y(m, 1), y_top)
    with pytest.raises(ExponentOverflow):
        op_apply(Element.y(m, 1), Element.y(m, 1, LIMIT - 1))
    # d_y^(L-1) o y = y d_y^(L-1) + (L-1) d_y^(L-2): both fields stay below
    assert op_compose(dy_top, Element.y(m, 1)) == Operator(m, {
        ((1,), (), top, ()): 1, ((0,), (), (LIMIT - 2,), ()): LIMIT - 1})


@pytest.mark.parametrize("power, code", [
    ("((x^7)^31)^151", 0),   # x^32767, at the limit
    ("(x^128)^256", 2),      # x^32768, beyond it
], ids=["at-limit", "beyond-limit"])
def test_cli_at_the_field_limit(tmp_path, capsys, power, code):
    """An exponent beyond the field exits 2 with a typed error; one at the
    limit is answered."""
    path = tmp_path / "f.qs"
    path.write_text(f"vars x;\nf = {power};\n")
    assert cli.main(["milnor", str(path)]) == code
    report = json.loads(capsys.readouterr().out)
    if code:
        assert report["payload"]["error_type"] == "ExponentOverflow"
    else:
        assert report["payload"]["milnor"] == LIMIT - 2


def test_vc_dims_on_a_large_exponent(tmp_path, capsys):
    """x^2000, far beyond a narrow field, through the codec."""
    path = tmp_path / "x2000.qs"
    path.write_text("vars x;\nf = x^2000;\n")
    assert cli.main(["vc-dims", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["dims"] == {"0": 1999}


def test_commutator_overflow_is_refused_only_for_pairs_that_meet():
    """A commutator pair that meets (a d_y against a y, either way) adds its
    keys and is refused when they overflow; a pair that meets in neither
    direction contributes nothing and is skipped before its keys are
    added, so [y^(2^14), y^(2^14)] is 0 while the product still overflows."""
    m, half = 1, LIMIT // 2
    y_half = Element.y(m, 1, half)
    y_half_dy = Operator(m, {((half,), (), (1,), ()): 1})
    for left, right in ((y_half_dy, y_half), (y_half, y_half_dy)):
        with pytest.raises(ExponentOverflow):
            op_commutator(left, right)
    assert op_commutator(y_half, y_half).is_zero()
    with pytest.raises(ExponentOverflow):
        op_compose(y_half, y_half)


@pytest.mark.parametrize("kwargs, message", [
    ({"a": (1,)}, "exponent vector of length 1, m = 2"),
    ({"a": (0, 0), "b": (2, -1)}, "negative exponent in (2, -1)"),
    ({"a": (0, 0), "eta": (2, 1)},
     "odd indices (2, 1) are not strictly increasing in 1..2"),
    ({"a": (0, 0), "deta": (3,)},
     "odd indices (3,) are not strictly increasing in 1..2"),
], ids=["length", "negative", "odd-order", "odd-range"])
def test_encode_refuses_what_it_cannot_pack(kwargs, message):
    """``Codec.encode`` refuses, never wraps: an exponent vector of the
    wrong length, a negative exponent, and odd indices that are not
    strictly increasing in 1..m."""
    with pytest.raises(ValueError) as err:
        codec(2).encode(**kwargs)
    assert str(err.value) == message
