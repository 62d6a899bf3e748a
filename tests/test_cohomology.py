import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift.coefficients import (HSeries, rank_exact_fraction_field,
                                 specialisation_points)
from qshift.cohomology import (DEGREE_TRUNCATED, WEIGHT_GRADED,
                               CohomologyReport, TruncationSpec,
                               iter_y_exponents, koszul_dims_at_hbar_zero, milnor_number,
                               twisted_derham_dims)
from qshift.errors import (NonIsolated, NotPolynomial, NotStabilised,
                           TruncationRequired, ZeroPolynomial)
from qshift.gca import Element, make_crit_locus

from conftest import CORPUS


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
        milnor_number(f, 2, cap=12)


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
    report = koszul_dims_at_hbar_zero(X, TruncationSpec(WEIGHT_GRADED, 12))
    assert report.dims_by_degree == {0: 4}
    assert report.field == "Q"


def test_koszul_dims_single_variable():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    report = koszul_dims_at_hbar_zero(X, TruncationSpec(DEGREE_TRUNCATED, 10))
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
