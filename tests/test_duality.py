import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import duality
from qshift.coefficients import HSeries, _accumulate, codec
from qshift.diffops import Operator, op_compose, op_order, symbol
from qshift.duality import is_self_dual, solve_sign_profile, star, transpose
from qshift.errors import NoConsistentProfile
from qshift.gca import Element, make_crit_locus
from qshift.quantise import Quantisation, bv_quantisation, sigma_tangent

from generator_oracle import fold, gen_sequence

from conftest import (arity_keys, corpus_locus, degree_part, levels,
                      random_operator, random_quantisation, sigma_by_level, star_by_level,
                      star_fixed_slot_dimension)


@pytest.fixture(scope="module")
def locus():
    return make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)


def test_profile_is_classical_adjoint(locus):
    profile = solve_sign_profile(locus)
    assert profile == {"mult_y": 1, "mult_eta": 1, "d_y": -1, "d_eta": -1}
    assert list(profile) == ["mult_y", "mult_eta", "d_y", "d_eta"]
    profile["d_y"] = 1  # a fresh dict each call
    assert solve_sign_profile(locus)["d_y"] == -1


@pytest.mark.parametrize("flip", [(-1, 1), (1, -1), (-1, -1)],
                         ids=["d_y", "d_eta", "both"])
def test_profile_check_refuses_every_other_profile(monkeypatch, flip):
    """The checks on the defining relations hold for the transpose's signs
    (-1, -1) only: a transpose that sent d_y to s_y d_y and d_eta to
    s_eta d_eta under any other rule is refused."""
    real = duality.transpose

    def wrong(D):
        C = codec(D.m)
        out = Operator.zero(D.m)
        for key, c in D.terms.items():
            nt = (key & C.deta).bit_count()
            sign = flip[0] ** (C.order(key) - nt) * flip[1] ** nt
            out = out + real(Operator._from_store(D.m, {key: c})).scale(sign)
        return out

    monkeypatch.setattr(duality, "transpose", wrong)
    with pytest.raises(NoConsistentProfile):
        solve_sign_profile(corpus_locus(4))


def test_transpose_euler_operator(locus):
    X = locus
    m = X.m
    euler = op_compose(Element.y(m, 1), Operator.d_y(m, 1))
    assert transpose(euler) == -euler - 1


def test_transpose_fixes_multiplications(locus):
    X = locus
    rng = random.Random(26)
    for _ in range(10):
        a = Element(X.m, {((rng.randint(0, 2), rng.randint(0, 2)),
                           tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))):
                          HSeries.const(rng.randint(1, 5))})
        assert transpose(a) == a


def test_transpose_fixes_bv(locus):
    X = locus
    bv = bv_quantisation(X)
    assert transpose(levels(bv)[2]) == levels(bv)[2]


def test_transpose_involution_and_antimultiplicativity(locus):
    X = locus
    rng = random.Random(27)
    for _ in range(40):
        D1 = random_operator(rng, X.m, max_order=3)
        D2 = random_operator(rng, X.m, max_order=2)
        assert transpose(transpose(D1)) == D1
        for d1 in D1.degrees():
            for d2 in D2.degrees():
                p1, p2 = degree_part(D1, d1), degree_part(D2, d2)
                sign = -1 if (d1 % 2) and (d2 % 2) else 1
                lhs = transpose(op_compose(p1, p2))
                rhs = op_compose(transpose(p2), transpose(p1)).scale(sign)
                assert lhs == rhs


def test_transpose_matches_reversed_word_fold():
    """The transpose against the fold of each monomial's reversed generator
    word, with (-1)^(n(n-1)/2) for its n odd generators and -1 for each
    derivative, m <= 3 and hbar exponents -2..3."""
    rng = random.Random(30)
    for _ in range(60):
        m = rng.randint(1, 3)
        C = codec(m)
        terms, expected = {}, {}
        for key, c in random_operator(rng, m, max_order=3, nterms=3).terms.items():
            hbar = rng.randint(-2, 3) << C.hbar_shift
            if rng.randint(0, 3) == 0:
                c = Fraction(c, 3)
            _accumulate(terms, key + hbar, c)
            n = (key & C.odd).bit_count()
            sign = (-1) ** (n * (n - 1) // 2 + C.order(key))
            for k, q in fold(gen_sequence(key, C)[::-1], {0: 1}, C).items():
                _accumulate(expected, k + hbar, sign * q * c)
        D = Operator._from_store(m, terms)
        assert transpose(D) == Operator._from_store(m, expected)


def test_transpose_order_preserving(locus):
    X = locus
    rng = random.Random(28)
    for _ in range(20):
        D = random_operator(rng, X.m, max_order=4)
        if D.is_zero():
            continue
        assert op_order(transpose(D)) == op_order(D)


def test_symbol_sign_rule_up_to_order_four(locus):
    X = locus
    rng = random.Random(29)
    for p in range(0, 5):
        for _ in range(20):
            D = random_operator(rng, X.m, max_order=p)
            if D.is_zero() or op_order(D) != p:
                continue
            lhs = symbol(transpose(D), p)
            rhs = symbol(D, p).scale((-1) ** p)
            assert lhs == rhs


def test_star_fixes_canonical_quantisation(corpus_case=None):
    for idx in (0, 4, 7):
        X = corpus_locus(idx)
        bv = bv_quantisation(X)
        assert star(bv) == bv
        assert is_self_dual(bv).kind == "Strict"


def test_star_involution_random(locus):
    X = locus
    rng = random.Random(30)
    for _ in range(25):
        delta = random_quantisation(rng, X.m, levels=(2, 3, 4))
        assert star(star(delta)) == delta


def test_star_preserves_poisson_symbol(locus):
    X = locus
    rng = random.Random(31)
    for _ in range(20):
        delta = random_quantisation(rng, X.m)
        if 2 not in levels(delta):
            continue
        lhs = symbol(levels(star(delta))[2], 2)
        rhs = symbol(levels(delta)[2], 2)
        assert lhs == rhs


def test_self_duality_obstructed_by_odd_coefficient(locus):
    X = locus
    bv = bv_quantisation(X)
    d3 = levels(bv)[2]  # transpose-fixed, reused at level 3
    delta = Quantisation(X.m, {2: d3, 3: d3})
    verdict = is_self_dual(delta)
    assert verdict.kind == "Fails"
    assert verdict.residual == d3.scale(HSeries.monomial(2, -2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3),
       picked=st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True))
def test_series_star_and_sigma_match_level_by_level(seed, m, picked):
    """star, sigma_tangent and the self-duality residual, each one pass over
    the hbar-series, against the level-by-level reference on random
    quantisations with levels among 2..4."""
    delta = random_quantisation(random.Random(seed), m, levels=sorted(picked))
    starred = star(delta)
    assert type(starred) is Quantisation
    assert starred == star_by_level(delta)
    assert sigma_tangent(delta).eps_as_series() == sigma_by_level(delta)
    verdict = is_self_dual(delta)
    residual = star_by_level(delta) - delta
    assert verdict.ok() == residual.is_zero()
    if not verdict.ok():
        assert verdict.residual == residual


def test_self_duality_zero(locus):
    X = locus
    assert is_self_dual(Quantisation.zero(X.m)).kind == "Strict"


def test_gr_parity_fixed_slots(locus):
    """The star involution acts on the gr_G^k slot by (-1)^k: the fixed
    subspace is everything for even k and zero for odd k."""
    X = locus
    ydeg_cap = 1
    for j in range(2, 6):
        for k in range(0, j + 1):
            arity = j - k
            keys = arity_keys(X, arity, ydeg_cap)
            fixed, total = star_fixed_slot_dimension(X, j, k, keys)
            assert total > 0
            if k % 2 == 0:
                assert fixed == total
            else:
                assert fixed == 0
