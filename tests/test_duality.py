import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import duality
from qshift.coefficients import HSeries, _accumulate, codec
from qshift.diffops import Operator, op_compose, op_order, symbol
from qshift.duality import (SignProfile, is_self_dual, solve_sign_profile, star,
                            transpose)
from qshift.errors import NoConsistentProfile
from qshift.gca import Element, make_crit_locus
from qshift.quantise import Quantisation, bv_quantisation, sigma_tangent

from generator_oracle import fold, gen_sequence

from conftest import (arity_keys, corpus_locus, degree_part, levels,
                      random_operator, random_quantisation, sigma_by_level, star_by_level,
                      star_fixed_slot_dimension)


@pytest.fixture(scope="module")
def locus_and_profile():
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    return X, solve_sign_profile(X)


def test_profile_is_classical_adjoint(locus_and_profile):
    X, profile = locus_and_profile
    assert profile.gen_signs["d_y"] == -1
    assert profile.gen_signs["d_eta"] == -1
    assert profile.gen_signs["mult_y"] == 1
    assert profile.gen_signs["mult_eta"] == 1


@pytest.mark.parametrize("flip", [(-1, 1), (1, -1), (-1, -1)],
                         ids=["d_y", "d_eta", "both"])
def test_profile_check_refuses_every_other_profile(monkeypatch, flip):
    """The checks on the defining relations hold for (-1, -1) only: a
    derivation that produced any other profile is refused."""
    real = duality.SignProfile
    monkeypatch.setattr(duality, "SignProfile",
                        lambda sy, se: real(sy * flip[0], se * flip[1]))
    with pytest.raises(NoConsistentProfile):
        solve_sign_profile(corpus_locus(4))


def test_transpose_euler_operator(locus_and_profile):
    X, profile = locus_and_profile
    m = X.m
    euler = op_compose(Element.y(m, 1), Operator.d_y(m, 1))
    assert transpose(euler, profile) == -euler - 1


def test_transpose_fixes_multiplications(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(26)
    for _ in range(10):
        a = Element(X.m, {((rng.randint(0, 2), rng.randint(0, 2)),
                           tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))):
                          HSeries.const(rng.randint(1, 5))})
        assert transpose(a, profile) == a


def test_transpose_fixes_bv(locus_and_profile):
    X, profile = locus_and_profile
    bv = bv_quantisation(X)
    assert transpose(levels(bv)[2], profile) == levels(bv)[2]


def test_transpose_involution_and_antimultiplicativity(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(27)
    for _ in range(40):
        D1 = random_operator(rng, X.m, max_order=3)
        D2 = random_operator(rng, X.m, max_order=2)
        assert transpose(transpose(D1, profile), profile) == D1
        for d1 in D1.degrees():
            for d2 in D2.degrees():
                p1, p2 = degree_part(D1, d1), degree_part(D2, d2)
                sign = -1 if (d1 % 2) and (d2 % 2) else 1
                lhs = transpose(op_compose(p1, p2), profile)
                rhs = op_compose(transpose(p2, profile),
                                 transpose(p1, profile)).scale(sign)
                assert lhs == rhs


@pytest.mark.parametrize("sy, se", [(1, 1), (-1, 1), (1, -1), (-1, -1)],
                         ids=["none", "d_y", "d_eta", "both"])
def test_transpose_matches_reversed_word_fold(sy, se):
    """The transpose against the fold of each monomial's reversed generator
    word, with (-1)^(n(n-1)/2) for its n odd generators and the profile's
    generator signs, under every sign profile, m <= 3 and hbar exponents
    -2..3."""
    profile = SignProfile(sy, se)
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
            n, nd = (key & C.odd).bit_count(), (key & C.deta).bit_count()
            sign = ((-1) ** (n * (n - 1) // 2) * sy ** (C.order(key) - nd)
                    * se ** nd)
            for k, q in fold(gen_sequence(key, C)[::-1], {0: 1}, C).items():
                _accumulate(expected, k + hbar, sign * q * c)
        D = Operator._from_store(m, terms)
        assert transpose(D, profile) == Operator._from_store(m, expected)


def test_transpose_order_preserving(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(28)
    for _ in range(20):
        D = random_operator(rng, X.m, max_order=4)
        if D.is_zero():
            continue
        assert op_order(transpose(D, profile)) == op_order(D)


def test_symbol_sign_rule_up_to_order_four(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(29)
    for p in range(0, 5):
        for _ in range(20):
            D = random_operator(rng, X.m, max_order=p)
            if D.is_zero() or op_order(D) != p:
                continue
            lhs = symbol(transpose(D, profile), p)
            rhs = symbol(D, p).scale((-1) ** p)
            assert lhs == rhs


def test_star_fixes_canonical_quantisation(corpus_case=None):
    for idx in (0, 4, 7):
        X = corpus_locus(idx)
        profile = solve_sign_profile(X)
        bv = bv_quantisation(X)
        assert star(bv, profile) == bv
        assert is_self_dual(bv, profile).kind == "Strict"


def test_star_involution_random(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(30)
    for _ in range(25):
        delta = random_quantisation(rng, X.m, levels=(2, 3, 4))
        assert star(star(delta, profile), profile) == delta


def test_star_preserves_poisson_symbol(locus_and_profile):
    X, profile = locus_and_profile
    rng = random.Random(31)
    for _ in range(20):
        delta = random_quantisation(rng, X.m)
        if 2 not in levels(delta):
            continue
        lhs = symbol(levels(star(delta, profile))[2], 2)
        rhs = symbol(levels(delta)[2], 2)
        assert lhs == rhs


def test_self_duality_obstructed_by_odd_coefficient(locus_and_profile):
    X, profile = locus_and_profile
    bv = bv_quantisation(X)
    d3 = levels(bv)[2]  # transpose-fixed, reused at level 3
    delta = Quantisation(X.m, {2: d3, 3: d3})
    verdict = is_self_dual(delta, profile)
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
    profile = solve_sign_profile(corpus_locus([0, 3, 7][m - 1]))
    starred = star(delta, profile)
    assert type(starred) is Quantisation
    assert starred == star_by_level(delta, profile)
    assert sigma_tangent(delta).eps_as_series() == sigma_by_level(delta)
    verdict = is_self_dual(delta, profile)
    residual = star_by_level(delta, profile) - delta
    assert verdict.ok() == residual.is_zero()
    if not verdict.ok():
        assert verdict.residual == residual


def test_self_duality_zero(locus_and_profile):
    X, profile = locus_and_profile
    assert is_self_dual(Quantisation.zero(X.m), profile).kind == "Strict"


def test_gr_parity_fixed_slots(locus_and_profile):
    """The star involution acts on the gr_G^k slot by (-1)^k: the fixed
    subspace is everything for even k and zero for odd k."""
    X, profile = locus_and_profile
    ydeg_cap = 1
    for j in range(2, 6):
        for k in range(0, j + 1):
            arity = j - k
            keys = arity_keys(X, arity, ydeg_cap)
            fixed, total = star_fixed_slot_dimension(X, profile, j, k, keys)
            assert total > 0
            if k % 2 == 0:
                assert fixed == total
            else:
                assert fixed == 0
