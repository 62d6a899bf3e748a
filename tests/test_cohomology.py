import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift.coefficients import (HSeries, rank_exact_fraction_field,
                                 specialisation_points)
from qshift.cohomology import (DEGREE_TRUNCATED, WEIGHT_GRADED,
                               CohomologyReport, TruncationSpec, _groebner,
                               iter_y_exponents, koszul_dims_at_hbar_zero, milnor_number,
                               twisted_derham_dims)
from qshift.errors import (NonIsolated, NotPolynomial, NotStabilised,
                           TruncationRequired, ZeroPolynomial)
from qshift.gca import Element, make_crit_locus

from conftest import CORPUS, CORPUS_IDS


def test_milnor_examples():
    assert milnor_number(Element.y(1, 1) ** 2, 1) == 1
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    assert milnor_number(f, 2) == 4
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 5
    assert milnor_number(f, 2) == 8


def test_milnor_corpus(corpus_case):
    name, X, mu = corpus_case
    assert milnor_number(X.f, X.m) == mu


def test_milnor_errors():
    with pytest.raises(ZeroPolynomial):
        milnor_number(Element.zero(1), 1)
    with pytest.raises(NotPolynomial):
        milnor_number(Element.y(1, 1) ** 2 * HSeries.monomial(1), 1)
    # unused variable: a partial vanishes identically
    with pytest.raises(NonIsolated):
        milnor_number(Element.y(2, 1) ** 2, 2)
    # one-dimensional critical locus
    f = Element.y(2, 1) ** 2 * Element.y(2, 2) ** 2
    with pytest.raises(NonIsolated):
        milnor_number(f, 2)


def test_twisted_dims_match_milnor(corpus_case):
    name, X, mu = corpus_case
    mode = WEIGHT_GRADED if X.signature.weights is not None else DEGREE_TRUNCATED
    report = twisted_derham_dims(X, TruncationSpec(mode, 20))
    assert report.total == mu
    assert set(report.dims_by_degree) <= {0}
    assert report.stabilised
    assert report.field == "Q(hbar)"
    assert report.euler == mu


def test_twisted_dims_concentrated_quadric_threefold():
    m = 3
    f = Element.y(m, 1) ** 2 + Element.y(m, 2) ** 2 + Element.y(m, 3) ** 2
    X = make_crit_locus(f, m)
    report = twisted_derham_dims(X, TruncationSpec(WEIGHT_GRADED, 12))
    assert report.dims_by_degree == {0: 1}


def test_twisted_dims_mode_agreement():
    for idx in (0, 1, 4, 6):
        name, builder, m, mu = CORPUS[idx]
        X = make_crit_locus(builder(), m)
        rw = twisted_derham_dims(X, TruncationSpec(WEIGHT_GRADED, 20))
        rd = twisted_derham_dims(X, TruncationSpec(DEGREE_TRUNCATED, 20))
        assert rw.dims_by_degree == rd.dims_by_degree


def test_twisted_dims_seed_independent():
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    X = make_crit_locus(f, 2)
    r1 = twisted_derham_dims(X, TruncationSpec(WEIGHT_GRADED, 12), seed=1)
    r2 = twisted_derham_dims(X, TruncationSpec(WEIGHT_GRADED, 12), seed=99)
    assert r1.dims_by_degree == r2.dims_by_degree


def test_koszul_dims_regular_sequence():
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    X = make_crit_locus(f, 2)
    report = koszul_dims_at_hbar_zero(X)
    assert report.dims_by_degree == {0: 4}
    assert report.field == "Q"


def test_koszul_dims_single_variable():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    report = koszul_dims_at_hbar_zero(X)
    assert report.dims_by_degree == {0: 1}


def test_weight_mode_requires_weights():
    f = Element.y(1, 1) ** 3 + Element.y(1, 1) ** 4
    X = make_crit_locus(f, 1)
    assert X.signature.weights is None
    with pytest.raises(TruncationRequired):
        twisted_derham_dims(X, TruncationSpec(WEIGHT_GRADED, 10))


def test_not_stabilised_is_an_error_not_a_guess():
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 5
    X = make_crit_locus(f, 2)
    with pytest.raises(NotStabilised):
        twisted_derham_dims(X, TruncationSpec(DEGREE_TRUNCATED, 2))


def test_stabilisation_window_below_one_is_refused():
    for window in (0, Fraction(1, 2), -1):
        with pytest.raises(ValueError):
            TruncationSpec(DEGREE_TRUNCATED, 5, window)


def test_rank_certificates_on_corpus_slices():
    """The two specialisation ranks agree with the exact elimination on the
    twisted-complex matrices of a corpus member."""
    from qshift.cohomology import element_keys_in_window, _twisted_image
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    X = make_crit_locus(f, 2)
    by_degree = element_keys_in_window(X, 3, WEIGHT_GRADED)
    for d, basis in sorted(by_degree.items()):
        cols = {}
        images = [_twisted_image(X, key) for key in basis]
        for img in images:
            for key in img:
                cols.setdefault(key, len(cols))
        rows = []
        for img in images:
            row = [HSeries.zero()] * len(cols)
            for key, c in img.items():
                row[cols[key]] = c
            rows.append(row)
        if not rows or not cols:
            continue
        p1, p2 = specialisation_points(0, 2)
        from qshift.coefficients import _specialised_rank
        r1 = _specialised_rank(rows, p1)
        r2 = _specialised_rank(rows, p2)
        rx = rank_exact_fraction_field(rows)
        assert r1 == r2 == rx


def test_report_euler_characteristic():
    report = CohomologyReport({0: 3, -1: 1}, "Q", TruncationSpec(DEGREE_TRUNCATED, 5), True)
    assert report.euler == 3 - 1
    assert report.total == 4
    d = report.as_dict()
    assert d["dims"] == {"-1": 1, "0": 3}


_WEIGHT = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))
_CAP = st.one_of(st.integers(-2, 4),
                 st.builds(Fraction, st.integers(-4, 12), st.integers(2, 4)))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 3), cap=_CAP, data=st.data())
def test_iter_y_exponents_matches_brute_force(m, cap, data):
    """Integer enumeration against a filtered itertools.product, which is
    lexicographic: same vectors, same order, in both modes."""
    weights = data.draw(st.one_of(st.none(),
                                  st.tuples(*[_WEIGHT] * m)))
    ws = weights or (Fraction(1),) * m
    top = max(0, int(Fraction(cap) / min(ws)))
    reference = [a for a in itertools.product(range(top + 1), repeat=m)
                 if sum(w * k for w, k in zip(ws, a)) <= cap]
    got = list(iter_y_exponents(m, cap, weights))
    assert got == reference
    assert got == sorted(set(got))


# ---------------------------------------------------------------------------
# The Groebner-basis certificate of the Jacobian ring
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(powers=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       data=st.data())
def test_semi_quasi_homogeneous_milnor_orlik(powers, data):
    """f = Sum y_i^(a_i) plus monomials of weight < 1 (w_i = 1/a_i): f is
    semi-quasi-homogeneous, so mu = Prod (a_i - 1) (Milnor-Orlik) and the
    Koszul homology is {0: mu}."""
    m = len(powers)
    f = Element.zero(m)
    for i, a in enumerate(powers, start=1):
        f = f + Element.y(m, i, a)
    lower = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, a - 1) for a in powers]),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))),
        max_size=3))
    for b, c in lower:
        if sum(Fraction(k, a) for k, a in zip(b, powers)) < 1:
            f = f + Element(m, {(b, ()): c})
    mu = math.prod(a - 1 for a in powers)
    assert milnor_number(f, m) == mu
    report = koszul_dims_at_hbar_zero(make_crit_locus(f, m))
    assert report.dims_by_degree == {0: mu}
    assert report.certificate["certificate"] == "groebner-grevlex"


def _grevlex_key(a):
    return sum(a), tuple(-x for x in reversed(a))


def _remainder(p, basis):
    """Division with remainder, written out independently of the module."""
    p, rem = dict(p), {}
    while p:
        a = max(p, key=_grevlex_key)
        c = p[a]
        for g in basis:
            lead = max(g, key=_grevlex_key)
            if all(x <= y for x, y in zip(lead, a)):
                q = tuple(x - y for x, y in zip(a, lead))
                for b, d in g.items():
                    key = tuple(x + y for x, y in zip(b, q))
                    p[key] = p.get(key, 0) - c / g[lead] * d
                    if not p[key]:
                        del p[key]
                break
        else:
            rem[a] = p.pop(a)
    return rem


def _s_polynomial(g, h):
    lg, lh = max(g, key=_grevlex_key), max(h, key=_grevlex_key)
    lcm = tuple(map(max, lg, lh))
    out = {}
    for poly, lead, sign in ((g, lg, 1), (h, lh, -1)):
        q = tuple(x - y for x, y in zip(lcm, lead))
        for b, d in poly.items():
            key = tuple(x + y for x, y in zip(b, q))
            out[key] = out.get(key, 0) + sign * d / poly[lead]
    return {k: v for k, v in out.items() if v}


def _y(m, a, c=1):
    return Element(m, {(tuple(a), ()): c})


# y*z^2 + 3y^2*z - 2x - 2x^2*y^2 (mu = 5) and
# 4y^2*z + x - 4x*y^3 + x^2*z^2 - 3x^2*y^2 (mu = 12)
HARD_3VAR = [
    (_y(3, (0, 1, 2)) + _y(3, (0, 2, 1), 3) + _y(3, (1, 0, 0), -2)
     + _y(3, (2, 2, 0), -2), 5),
    (_y(3, (0, 2, 1), 4) + _y(3, (1, 0, 0)) + _y(3, (1, 3, 0), -4)
     + _y(3, (2, 0, 2)) + _y(3, (2, 2, 0), -3), 12),
]


@pytest.mark.parametrize("f, m, mu", [
    (builder(), m, mu) for (_, builder, m, mu) in CORPUS]
    + [(f, 3, mu) for f, mu in HARD_3VAR],
    ids=CORPUS_IDS + ["mu5", "mu12"])
def test_groebner_basis_passes_buchberger_test(f, m, mu):
    """Every S-pair of the returned basis and every partial reduce to 0 by
    an independent division, no leading monomial divides another, and the
    standard monomials count mu."""
    partials = [{a: c[0] for (a, _), c in f.partial_y(i).terms.items()}
                for i in range(1, m + 1)]
    basis = [g for _, g in _groebner(partials)]
    leads = [max(g, key=_grevlex_key) for g in basis]
    assert not any(a != b and all(x <= y for x, y in zip(a, b))
                   for a in leads for b in leads)
    for g, h in itertools.combinations(basis, 2):
        assert _remainder(_s_polynomial(g, h), basis) == {}
    for p in partials:
        assert _remainder(p, basis) == {}
    assert milnor_number(f, m) == mu
