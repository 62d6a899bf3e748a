import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qshift import cli
from qshift.coefficients import HSeries
from qshift.cohomology import (_groebner, _grevlex_layout, _payload,
                               _reduce, _slice_rank, _standard_count, _tame,
                               _weight_rescaling,
                               element_keys_in_window,
                               iter_y_exponents, koszul_dims_at_hbar_zero,
                               milnor_number, twisted_derham_dims)
from qshift.errors import (ExponentOverflow, NonIsolated, NotCertified,
                           NotPolynomial, ZeroPolynomial)
from qshift.gca import Element, make_crit_locus

from conftest import CORPUS, CORPUS_IDS, decoded, f_weights, sparse_rows
from groebner_oracle import box_count, milnor as oracle_milnor, packed_reduce
from hbar_oracle import rank_exact_fraction_field, twisted_matrix


def test_milnor_examples():
    assert milnor_number(make_crit_locus(Element.y(1, 1) ** 2, 1)) == 1
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    assert milnor_number(make_crit_locus(f, 2)) == 4
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 5
    assert milnor_number(make_crit_locus(f, 2)) == 8


def test_milnor_corpus(corpus_case):
    name, X, mu = corpus_case
    assert milnor_number(X) == mu


def test_milnor_errors():
    with pytest.raises(ZeroPolynomial):
        milnor_number(make_crit_locus(Element.zero(1), 1))
    with pytest.raises(NotPolynomial):
        milnor_number(make_crit_locus(
            Element.y(1, 1) ** 2 * HSeries.monomial(1), 1))
    # unused variable: a partial vanishes identically
    with pytest.raises(NonIsolated):
        milnor_number(make_crit_locus(Element.y(2, 1) ** 2, 2))
    # one-dimensional critical locus
    f = Element.y(2, 1) ** 2 * Element.y(2, 2) ** 2
    with pytest.raises(NonIsolated):
        milnor_number(make_crit_locus(f, 2))


def test_square_variable_is_refused_before_groebner(monkeypatch):
    """If m >= 2 and y_i^2 divides every term of f, the hyperplane y_i = 0
    is critical: NonIsolated names y_i without a Groebner basis.  At m = 1
    the hyperplane is a point, and x^2 still answers mu = 1."""
    from qshift import cohomology

    def no_groebner(polys, m):
        raise AssertionError("a Groebner basis was computed")

    x, yy, z = Element.y(2, 1), Element.y(2, 2), Element.y(3, 3)
    roadmap_f = (z ** 2 * Element(3, {((3, 4, 2), ()): 2, ((3, 1, 2), ()): -1,
                                      ((2, 3, 2), ()): Fraction(-2, 3),
                                      ((4, 3, 1), ()): 2, ((0, 1, 0), ()): 2}))
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_groebner", no_groebner)
        for f, m, names, name in [(x ** 2 * yy, 2, None, "y_1"),
                                  (x ** 2 * yy ** 2, 2, ("x", "y"), "x"),
                                  (yy ** 2 * (x + yy), 2, ("x", "y"), "y"),
                                  (roadmap_f, 3, ("x", "y", "z"), "z")]:
            with pytest.raises(NonIsolated, match=rf"^{name}\^2 divides every"):
                milnor_number(make_crit_locus(f, m, names))
    assert milnor_number(make_crit_locus(Element.y(1, 1) ** 2, 1)) == 1
    # x^2*y + y^3: no square divides every term, and f is isolated
    assert milnor_number(make_crit_locus(x ** 2 * yy + yy ** 3, 2)) == 4


def test_twisted_dims_match_milnor(corpus_case):
    name, X, mu = corpus_case
    report = twisted_derham_dims(X)
    assert report["total"] == mu
    assert set(report["dims"]) <= {"0"}
    assert report["field"] == "Q(hbar)"
    assert report["euler"] == mu
    assert report["certificate"] == "weight-rescaling"
    assert report["stabilised"] is True


def test_twisted_dims_concentrated_quadric_threefold():
    m = 3
    f = Element.y(m, 1) ** 2 + Element.y(m, 2) ** 2 + Element.y(m, 3) ** 2
    X = make_crit_locus(f, m)
    report = twisted_derham_dims(X)
    assert report["dims"] == {"0": 1}


def test_twisted_dims_mode_agreement():
    """Both certificates answer a quasi-homogeneous f alike: the weight
    rescaling, which vc-dims uses, and the tameness certificate."""
    for idx in (0, 1, 4, 6):
        name, builder, m, mu = CORPUS[idx]
        X = make_crit_locus(builder(), m)
        rw = _weight_rescaling(X, f_weights(X))
        rd = _tame(X)
        assert rw["dims"] == rd["dims"]
        assert rd["certificate"] == "tame:semi-quasi-homogeneous"
        assert rd["weights"] == rw["weights"]


def test_koszul_dims_regular_sequence():
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    X = make_crit_locus(f, 2)
    report = koszul_dims_at_hbar_zero(X)
    assert report["dims"] == {"0": 4}
    assert report["field"] == "Q"


def test_koszul_dims_single_variable():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    report = koszul_dims_at_hbar_zero(X)
    assert report["dims"] == {"0": 1}


def test_weight_mode_requires_weights():
    """The weight rescaling is chosen only for f with weights; x^3 + x^4 has
    none, so it gets the tameness certificate."""
    f = Element.y(1, 1) ** 3 + Element.y(1, 1) ** 4
    X = make_crit_locus(f, 1)
    assert f_weights(X) is None
    report = twisted_derham_dims(X)
    assert report["certificate"] == "tame:semi-quasi-homogeneous"
    assert report["dims"] == {"0": 3}


def test_not_certified_is_an_error_not_a_guess():
    """The tameness certificate refuses f that it cannot certify.  x^2 + y^2 +
    x^3*y^3 has finitely many critical points, but no two of its monomials
    give weights under which the third weighs at most 1."""
    for exps, error in [
            (((2, 1),), NonIsolated),  # x^2*y: a line of critical points
            (((2, 2),), NonIsolated),  # x^2*y^2
            (((1, 0), (2, 1)), NotCertified),  # x + x^2*y: no critical point
            (((2, 0), (0, 2), (3, 3)), NotCertified)]:
        X = make_crit_locus(Element(2, {(a, ()): 1 for a in exps}), 2)
        with pytest.raises(error):
            _tame(X)


def _y(m, a, c=1):
    return Element(m, {(tuple(a), ()): c})


@pytest.mark.parametrize("entry, f, m, mu, weights", [
    (twisted_derham_dims, _y(2, (1, 1)), 2, 1, ["1/2", "1/2"]),
    (twisted_derham_dims, _y(3, (1, 1, 0)) + _y(3, (0, 0, 2)), 3, 1,
     ["1/2", "1/2", "1/2"]),
    (_tame, _y(2, (3, 0)) + _y(2, (0, 3)), 2, 4, ["1/3", "1/3"]),
    (_tame, _y(2, (2, 1)) + _y(2, (0, 4)), 2, 5, ["3/8", "1/4"]),
    (_tame, _y(3, (3, 0, 0)) + _y(3, (0, 3, 0)) + _y(3, (0, 0, 3)), 3, 8,
     ["1/3", "1/3", "1/3"])], ids=["xy", "xy+z2", "x3y3", "D5", "x3y3z3"])
def test_tame_reuses_mu_when_the_top_part_is_f(monkeypatch, entry, f, m, mu,
                                               weights):
    """Weights that put every monomial of f at weight 1 make the top part f
    itself: _tame builds one Groebner basis, not a second one of the same
    partials, and answers the same payload.  xy and xy + z^2 reach _tame
    from twisted_derham_dims, as only the squares y_i^2 pin their weights;
    a quasi-homogeneous f with unique weights is passed to _tame direct."""
    from qshift import cohomology
    calls = []
    real = cohomology._groebner
    monkeypatch.setattr(cohomology, "_groebner",
                        lambda polys, m: calls.append(m) or real(polys, m))
    assert entry(make_crit_locus(f, m)) == {
        "dims": {"0": mu}, "field": "Q(hbar)", "stabilised": True,
        "euler": mu, "total": mu, "certificate": "tame:semi-quasi-homogeneous",
        "weights": weights, "cutoff": None}
    assert calls == [m]


_WEIGHT_MODE_PROBLEMS = [(builder(), m) for (_, builder, m, _) in CORPUS] + [
    (Element.y(2, 1) ** 5 + Element.y(2, 2) ** 7, 2),
    (Element.y(3, 1) ** 3 + Element.y(3, 2) ** 3 + Element.y(3, 3) ** 3, 3),
    (_y(2, (2, 1)) + _y(2, (0, 4)), 2),  # D5
    (_y(2, (3, 0)) + _y(2, (1, 3)), 2),  # E7
    (_y(3, (3, 0, 0)) + _y(3, (0, 3, 0)) + _y(3, (0, 0, 3))
     + _y(3, (1, 1, 1)), 3)]


def test_rank_certificates_on_corpus_slices():
    """The one rank at hbar = 1 per slice equals the rank over Q(hbar) of
    the Bareiss oracle, on every slice at the socle cutoff of every
    quasi-homogeneous problem of the corpus and of the benchmark."""
    for f, m in _WEIGHT_MODE_PROBLEMS:
        X = make_crit_locus(f, m)
        weights = f_weights(X)
        socle = sum(1 - 2 * w for w in weights)
        by_degree = element_keys_in_window(X, socle, weights)
        for d, basis in sorted(by_degree.items()):
            assert _slice_rank(X, basis) == rank_exact_fraction_field(
                twisted_matrix(X, basis)), (f, d)
        assert twisted_derham_dims(X)["dims"] == {"0": milnor_number(X)}


def test_report_euler_characteristic():
    d = _payload({0: 3, -1: 1, 1: 0}, "Q", {})
    assert d["euler"] == 3 - 1
    assert d["total"] == 4
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
    X = make_crit_locus(f, m)
    assert milnor_number(X) == mu
    report = koszul_dims_at_hbar_zero(X)
    assert report["dims"] == {"0": mu}
    assert report["certificate"] == "groebner-grevlex"
    # vc-dims: the tame certificate, and the weight rescaling on the
    # quasi-homogeneous top part (on f too when f happens to be one)
    assert _tame(X)["dims"] == {"0": mu}
    top = make_crit_locus(sum((Element.y(m, i, a) for i, a in
                               enumerate(powers, start=1)), Element.zero(m)), m)
    assert _weight_rescaling(top, f_weights(top))["dims"] == {"0": mu}
    weights = f_weights(X)
    if weights is not None:
        assert _weight_rescaling(X, weights)["dims"] == {"0": mu}


@settings(max_examples=60, deadline=None)
@given(powers=st.lists(st.integers(2, 9), min_size=1, max_size=3),
       data=st.data())
def test_brieskorn_pham_weights(powers, data):
    """f = Sum c_i y_i^(a_i), c_i nonzero rationals: every monomial weighs 1
    under w_i = 1/a_i alone, so the weight solve returns (1/a_1, ...), and
    vc-dims reports them as strings with its weight-rescaling certificate
    and mu = Prod (a_i - 1)."""
    m = len(powers)
    coeffs = data.draw(st.lists(st.builds(
        Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 5)),
        min_size=m, max_size=m))
    f = sum((Element.y(m, i, a).scale(c) for i, (a, c) in
             enumerate(zip(powers, coeffs), start=1)), Element.zero(m))
    weights = tuple(Fraction(1, a) for a in powers)
    assert f_weights(make_crit_locus(f, m)) == weights
    names = [f"y{i}" for i in range(1, m + 1)]
    report = cli.run_command("vc-dims", cli.ProblemFile(names, f))
    assert report.status == "ok", report.payload
    assert report.payload["certificate"] == "weight-rescaling"
    assert report.payload["weights"] == [str(w) for w in weights]
    assert report.payload["dims"] == {"0": math.prod(a - 1 for a in powers)}


def _grevlex_key(a):
    return sum(a), tuple(-x for x in reversed(a))


def _packed(a):
    """The packed grevlex key of y^a: |a| on top, then 2^15 - 1 - a_i in
    16-bit fields from a_m down to a_1."""
    return sum(a) << 16 * len(a) | sum((2 ** 15 - 1 - x) << 16 * i
                                       for i, x in enumerate(a))


def _unpacked(key, m):
    return tuple(2 ** 15 - 1 - (key >> 16 * i & 0xFFFF) for i in range(m))


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
                    p[key] = p.get(key, 0) - Fraction(c, g[lead]) * d
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
            out[key] = out.get(key, 0) + sign * Fraction(d, poly[lead])
    return {k: v for k, v in out.items() if v}


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
    standard monomials count mu.  The basis is built on packed keys, which
    are decoded to exponent tuples here, and its integer leading key is
    the grevlex leading monomial."""
    partials = [{a: c for ((a, _), _), c in decoded(f.partial_y(i)).items()}
                for i in range(1, m + 1)]
    packed = _groebner([{_packed(a): c for a, c in p.items()}
                        for p in partials], m)
    basis = [{_unpacked(k, m): c for k, c in g.items()} for _, g in packed]
    leads = [max(g, key=_grevlex_key) for g in basis]
    assert [_unpacked(lead, m) for lead, _ in packed] == leads
    assert all(type(c) is int for g in basis for c in g.values())
    assert not any(a != b and all(x <= y for x, y in zip(a, b))
                   for a in leads for b in leads)
    for g, h in itertools.combinations(basis, 2):
        assert _remainder(_s_polynomial(g, h), basis) == {}
    for p in partials:
        assert _remainder(p, basis) == {}
    assert milnor_number(make_crit_locus(f, m)) == mu


_COEFF = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda c: st.sampled_from([c, -c]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 3), data=st.data())
def test_milnor_matches_the_tuple_oracle(m, data):
    """On random f (1-6 monomials, exponents <= 4, coefficients in
    +-{1..4}/{1..3}) the packed, fraction-free Buchberger and the Hilbert
    count give the oracle's mu and leading monomials in the same order, or
    both refuse NonIsolated for the same reason.  The examples are fixed:
    a few f in a thousand of this kind keep Buchberger busy for a minute
    or more (in the oracle too), and nothing bounds its work yet."""
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * m),
                                      _COEFF, min_size=1, max_size=6))
    f = Element(m, {(a, ()): c for a, c in terms.items()})
    names = ("x", "y", "z")[:m]
    try:
        expected = oracle_milnor(f, m, names)
    except NonIsolated as exc:
        with pytest.raises(NonIsolated) as refused:
            milnor_number(make_crit_locus(f, m, names))
        assert str(refused.value) == str(exc)
        return
    mu = milnor_number(make_crit_locus(f, m, names))
    assert (mu, mu.certificate["leading_monomials"]) == expected


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 4), data=st.data())
def test_standard_count_matches_the_box_walk(m, data):
    """On random zero-dimensional lead sets (a power of every variable, up
    to 8 more leads, exponents <= 8, 1 allowed) the Hilbert recursion
    counts the standard monomials that the box walk counts."""
    powers = data.draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    leads = [[e * (j == i) for j in range(m)] for i, e in enumerate(powers)]
    leads += data.draw(st.lists(st.lists(st.integers(0, 8), min_size=m,
                                         max_size=m), max_size=8))
    leads = data.draw(st.permutations(leads))
    assert _standard_count(leads) == box_count(leads)


def test_standard_count_matches_the_box_walk_on_the_problem_files():
    """The Hilbert recursion and the box walk count the same standard
    monomials on the leading monomials of every problem file, and that
    count is its Milnor number."""
    paths = sorted((Path(__file__).resolve().parent.parent / "perfbench"
                    / "problems").glob("*.qs"))
    assert len(paths) == 13
    for path in paths:
        problem = cli.parse_problem(path.read_text())
        mu = milnor_number(problem.crit_locus())
        leads = mu.certificate["leading_monomials"]
        assert _standard_count(leads) == box_count(leads) == mu, path.name


def test_crit_locus_partials_are_not_taken_again(monkeypatch):
    """milnor_number reads a CritLocus's cached partials: koszul-dims and
    the weight-rescaling certificate never differentiate f again, and
    answer as milnor_number does on a fresh locus of f."""
    f = Element.y(2, 1) ** 3 + Element.y(2, 2) ** 5
    X = make_crit_locus(f, 2, ("x", "y"))
    expected = milnor_number(make_crit_locus(f, 2, ("x", "y")))
    calls = []
    original = Element.partial_y
    monkeypatch.setattr(Element, "partial_y",
                        lambda a, i: calls.append(i) or original(a, i))
    report = koszul_dims_at_hbar_zero(X)
    assert report["dims"] == {"0": expected}
    assert {k: report[k] for k in expected.certificate} == \
        expected.certificate
    assert twisted_derham_dims(X)["dims"] == {"0": 8}
    assert calls == []
    make_crit_locus(f, 2)
    assert calls == [1, 2]


def test_exponent_overflow_is_refused():
    """An S-polynomial that would push an exponent to 2^15 is refused with
    ExponentOverflow, as the codec refuses it; exponents just below the
    limit answer."""
    g1 = {_packed((16000, 17000)): 1, _packed((32767, 0)): 1}
    g2 = {_packed((16001, 16999)): 1}
    with pytest.raises(ExponentOverflow):
        _groebner([g1, g2], 2)
    f = Element.y(2, 1, 2 ** 15 - 1) + Element.y(2, 2, 2 ** 15 - 1)
    assert milnor_number(make_crit_locus(f, 2)) == (2 ** 15 - 2) ** 2


def _times(poly, s, c):
    """c y^s times the {exponents: int} polynomial ``poly``, packed."""
    return {_packed(tuple(x + y for x, y in zip(a, s))): c * d
            for a, d in poly.items()}


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_reduce_matches_the_reference_division(m, data):
    """The heap walk's remainder is the reference division's, term for
    term, on random packed p and bases.  The first basis element leads with
    a coefficient above 1 and divides p's leading term, whose coefficient
    is +-1, so the first step has u != 1; p also holds a multiple of a basis
    element, so keys cancel during the walk.  The input p is not changed.
    A remainder term stored before a step with u != 1 is pinned by
    ``test_reduce_edge_cases``."""
    _, guards = _grevlex_layout(m)
    exps = st.tuples(*[st.integers(0, 4)] * m)
    coeff = st.integers(-9, 9).filter(bool)
    polys, basis = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        poly = data.draw(st.dictionaries(exps, coeff, min_size=1, max_size=4))
        poly[max(poly, key=_grevlex_key)] = data.draw(st.integers(2, 6))
        d = math.gcd(*poly.values())
        poly = {a: c // d for a, c in poly.items()}
        g = _times(poly, (0,) * m, 1)
        polys.append(poly)
        basis.append((max(g), max(g) | guards, g))
    lead, _, g = basis[0]
    assume(g[lead] > 1)
    p = _times(data.draw(st.dictionaries(exps, coeff, max_size=6)),
               (0,) * m, 1)
    for k, c in _times(data.draw(st.sampled_from(polys)),
                       data.draw(st.tuples(*[st.integers(0, 2)] * m)),
                       data.draw(coeff)).items():
        p[k] = p.get(k, 0) + c
    top = (6 * m + 1,) + (0,) * (m - 1)  # above every other term of p
    p[_packed(tuple(x + y for x, y in zip(_unpacked(lead, m), top)))] = \
        data.draw(st.sampled_from([1, -1]))
    p = {k: c for k, c in p.items() if c}
    given_p = dict(p)
    assert _reduce(p, basis, guards, m) == packed_reduce(p, basis, guards, m)
    assert p == given_p


def test_reduce_edge_cases():
    """An empty p has remainder {}; a p that no lead divides (or an empty
    basis) is its own remainder, made primitive with a positive lead, as the
    reference division gives it.  In y^3 + x^2 over 3x^2 + y the term y^3
    goes to the remainder before the step with u = 3, so it is scaled by 3
    at the end: the remainder is 3y^3 - y, not y^3 - y."""
    _, guards = _grevlex_layout(2)
    g = {_packed((2, 0)): 3, _packed((0, 1)): 1}
    basis = [(max(g), max(g) | guards, g)]
    assert _reduce({}, basis, guards, 2) == {} == \
        packed_reduce({}, basis, guards, 2)
    p = {_packed((1, 1)): -6, _packed((0, 2)): 4, _packed((0, 0)): 2}
    want = {_packed((1, 1)): 3, _packed((0, 2)): -2, _packed((0, 0)): -1}
    for b in (basis, []):
        assert _reduce(p, b, guards, 2) == want == \
            packed_reduce(p, b, guards, 2)
    p = {_packed((0, 3)): 1, _packed((2, 0)): 1}
    want = {_packed((0, 3)): 3, _packed((0, 1)): -1}
    assert _reduce(p, basis, guards, 2) == want == \
        packed_reduce(p, basis, guards, 2)


def _floats(obj):
    """Every float inside nested dicts, lists, tuples and sets."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _floats(k)
            yield from _floats(v)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _floats(v)


def test_integer_input_stays_exact(monkeypatch):
    """On integer-only input no float appears in a Groebner basis, a pivot
    row, a solution or a report payload: every division is exact.  Every
    pivot row of the elimination holds only ints, is primitive, and leads
    with a positive entry at its smallest column."""
    from qshift import cli, coefficients, cohomology
    from qshift.coefficients import rank_rational, solve_rational
    seen, eliminated = [], []

    def spy(fn, into):
        def wrapper(*args):
            out = fn(*args)
            into.append(out)
            seen.append(out)
            return out
        return wrapper

    monkeypatch.setattr(cohomology, "_groebner", spy(cohomology._groebner, []))
    monkeypatch.setattr(coefficients, "_eliminate",
                        spy(coefficients._eliminate, eliminated))
    for text in ("vars x y; f = x^3 + x^2*y^2 + y^5;",
                 "vars x y; f = 3*x^3 + 2*y^4;",
                 "vars x y; f = x^4 + y^4 + x^2*y;",
                 "vars x y z; f = 4*y^2*z + x - 4*x*y^3 + x^2*z^2 - 3*x^2*y^2;"):
        problem = cli.parse_problem(text)
        for cmd in ("milnor", "koszul-dims", "vc-dims"):
            report = cli.run_command(cmd, problem).as_dict()
            assert report["status"] in ("ok", "error")
            assert not list(_floats(report))
    assert rank_rational(sparse_rows([[2, 3, 5], [4, 6, 10], [1, 0, 7]])) == 2
    sol = solve_rational(sparse_rows([[2, 0], [0, 3], [2, 3]]),
                         {0: 1, 1: 1, 2: 2}, 2)
    assert sol == {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert solve_rational(sparse_rows([[2, 4], [1, 2]]), {0: 3, 1: 1}, 2) is None
    assert seen and not list(_floats(seen)) and not list(_floats(sol))
    for value in sol.values():
        assert type(value) is int or value.denominator > 1
    assert any(eliminated)
    for pivots in eliminated:
        for lead, row in pivots.items():
            assert all(type(v) is int and v for v in row.values())
            assert lead == min(row) and row[lead] > 0
            assert math.gcd(*row.values()) == 1
