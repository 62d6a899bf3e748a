import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from qshift import derham, quantise
from qshift.coefficients import HSeries, _accumulate, codec
from qshift.diffops import (Operator, op_commutator, op_compose, op_order,
                            symbol)
from qshift.derham import SearchWindow
from qshift.errors import (ExponentOverflow, NotCertified, NotMaurerCartan,
                           QShiftError)
from qshift.gca import Element, gmul, make_crit_locus
from qshift.quantise import (Quantisation, _order_bound, _order_keys,
                             bv_quantisation, centre_differential,
                             filtration_dims, koszul_operator, mc_residual,
                             nu_eigen_analysis, operator_keys_in_window,
                             sigma_tangent)

from conftest import (CORPUS, CORPUS_IDS, arity_keys, corpus_locus,
                      decoded, filtration_table, hbar_component, levels,
                      random_operator, random_quantisation)
from eigen_oracle import windowed_eigen_analysis
from window_oracle import operator_keys_by_encode


def test_bv_quantisation_shape():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    bv = bv_quantisation(X)
    assert set(levels(bv)) == {2}
    assert levels(bv)[2] == op_compose(Operator.d_y(1, 1), Operator.d_eta(1, 1))
    X2 = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    bv2 = bv_quantisation(X2)
    expected = (op_compose(Operator.d_y(2, 1), Operator.d_eta(2, 1))
                + op_compose(Operator.d_y(2, 2), Operator.d_eta(2, 2)))
    assert levels(bv2)[2] == expected
    assert op_order(levels(bv2)[2]) == 2


def test_master_equation_on_corpus(corpus_case):
    name, X, _ = corpus_case
    assert mc_residual(X, bv_quantisation(X)).is_zero()


def test_master_equation_random_f():
    rng = random.Random(12)
    for _ in range(30):
        m = rng.randint(1, 3)
        terms = {}
        for _ in range(3):
            a = [0] * m
            for _ in range(rng.randint(1, 6)):
                a[rng.randrange(m)] += 1
            terms[(tuple(a), ())] = HSeries.const(rng.randint(1, 4))
        if not terms:
            continue
        X = make_crit_locus(Element(m, terms), m)
        assert mc_residual(X, bv_quantisation(X)).is_zero()


def test_master_equation_spurious_term_fails():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    spurious = Operator(1, {((0,), (1,), (2,), ()): HSeries.const(1)})
    delta = Quantisation(1, {2: levels(bv_quantisation(X))[2] + spurious})
    assert not mc_residual(X, delta).is_zero()


def test_mc_residual_matches_commutator_formula():
    """(1/2)[D, D] computed as D_odd o D_odd equals the commutator formula,
    copied here, on operators with mixed parities and multi-term hbar
    coefficients."""
    from qshift.diffops import op_commutator
    rng = random.Random(7)
    seen_odd_square = False
    for _ in range(60):
        m = rng.randint(1, 3)
        A = random_operator(rng, m, nterms=4, with_hbar=True)
        D = A + A.scale(HSeries({-1: Fraction(1, 2), 2: -3}))
        X = corpus_locus([0, 3, 7][m - 1])
        half = op_commutator(D, D).scale(Fraction(1, 2))
        reference = op_commutator(koszul_operator(X), D) + half
        assert mc_residual(X, D) == reference
        seen_odd_square |= not half.is_zero()
    assert seen_odd_square


# The operators benchmark corpus: the acceptance corpus plus x^3+y^3+z^3.
_OPERATOR_CORPUS = [(builder, m) for (_, builder, m, _) in CORPUS] + [
    (lambda: Element.y(3, 1) ** 3 + Element.y(3, 2) ** 3 + Element.y(3, 3) ** 3, 3)]


@pytest.mark.parametrize("builder, m", _OPERATOR_CORPUS,
                         ids=CORPUS_IDS + ["x^3+y^3+z^3"])
def test_total_operator_squares_to_zero(builder, m):
    """D = delta_Koszul + Delta is odd, so D o D = (1/2)[D, D], which is the
    master-equation residual because delta_Koszul o delta_Koszul = 0."""
    X = make_crit_locus(builder(), m)
    delta = bv_quantisation(X)
    D = koszul_operator(X) + delta
    assert op_compose(D, D).is_zero()
    spurious = Operator(m, {((0,) * m, (1,), (2,) + (0,) * (m - 1), ()):
                            HSeries.const(1)})
    bent = Quantisation(m, {2: levels(delta)[2] + spurious})
    D = koszul_operator(X) + bent
    residual = mc_residual(X, bent)
    assert not residual.is_zero()
    assert op_compose(D, D) == residual


def test_master_equation_zero_delta():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    assert mc_residual(X, Quantisation.zero(1)).is_zero()


def test_sigma_tangent():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    bv = bv_quantisation(X)
    tangent = sigma_tangent(bv)
    d2 = levels(bv)[2]
    assert tangent.eps_as_series() == d2.scale(HSeries.monomial(2))
    assert sigma_tangent(Quantisation.zero(1)).eps_as_series().is_zero()
    only3 = Quantisation(1, {3: d2})
    assert sigma_tangent(only3).eps_as_series() == d2.scale(
        HSeries.monomial(3, 2))


def test_sigma_is_a_cocycle_for_bv(corpus_case):
    name, X, _ = corpus_case
    bv = bv_quantisation(X)
    eps = sigma_tangent(bv).eps_as_series()
    assert centre_differential(X, bv, eps).is_zero()


def test_centre_differential_on_generators():
    m = 2
    X = make_crit_locus(Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3, m)
    bv = bv_quantisation(X)
    u = Element.y(m, 1)
    assert centre_differential(X, bv, u) == Operator.d_eta(m, 1).scale(HSeries.monomial(1))
    v = Element.eta(m, 1)
    expected = (Operator.d_y(m, 1).scale(HSeries.monomial(1))
                + X.partials[0])
    assert centre_differential(X, bv, v) == expected
    assert centre_differential(X, bv, Operator.identity(m)).is_zero()


def test_centre_differential_square_zero_random():
    rng = random.Random(13)
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    for _ in range(25):
        u = random_operator(rng, X.m, max_order=2, with_hbar=True)
        once = centre_differential(X, bv, u)
        assert centre_differential(X, bv, once).is_zero()


def _shift_hbar(op, e):
    shift = e << codec(op.m).hbar_shift
    return Operator._from_store(op.m, {k + shift: c
                                       for k, c in op.terms.items()})


def test_centre_differential_commutes_with_hbar():
    """hbar is central and of degree 0, so d(hbar^e u) is d(u) with every
    hbar exponent shifted by e, for any Delta, Maurer-Cartan or not: the
    coboundary search builds each column hbar^e u from the image of u."""
    rng = random.Random(17)
    for _ in range(30):
        X = corpus_locus(rng.choice([1, 4, 6, 8]))
        delta = random_quantisation(rng, X.m)
        u = random_operator(rng, X.m, with_hbar=True)
        total = koszul_operator(X) + delta
        image = op_commutator(total, u)
        for e in (1, 2, 3):
            shifted = op_commutator(total, u * HSeries.monomial(e))
            assert shifted == _shift_hbar(image, e)


def test_centre_differential_rejects_non_mc():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    spurious = Operator(1, {((0,), (1,), (2,), ()): HSeries.const(1)})
    delta = Quantisation(1, {2: levels(bv_quantisation(X))[2] + spurious})
    with pytest.raises(NotMaurerCartan):
        centre_differential(X, delta, Operator.identity(1))


def test_centre_differential_order_bookkeeping():
    """u in level-i of the tangent filtration stays in level i: per
    hbar-exponent e the coefficient has order <= e."""
    rng = random.Random(14)
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    for _ in range(20):
        pieces = Operator.zero(X.m)
        for p in range(1, 4):
            op = random_operator(rng, X.m, max_order=p, nterms=1)
            pieces = pieces + op.scale(HSeries.monomial(p))
        image = centre_differential(X, bv, pieces)
        for e in image.hbar_exponents():
            comp = hbar_component(image, e)
            if not comp.is_zero():
                assert op_order(comp) <= e


# ---------------------------------------------------------------------------
# Non-degeneracy of the symbol pairing of Delta_2
# ---------------------------------------------------------------------------

def _symbol_partial(terms, kind, i, C):
    """Left partial of a symbol-term dict by one derivative symbol."""
    out = {}
    if kind == "y":
        off, unit = C.dy_off[i - 1], C.dy[i - 1]
        for k, c in terms.items():
            b = k >> off & C.field
            if b:
                _accumulate(out, k - unit, c * b)
    else:
        bit = C.deta_bits[i - 1]
        for k, c in terms.items():
            if k & bit:
                # past eta_S, then out of its place among d_eta_T
                odd = ((k & C.eta).bit_count()
                       + (k & C.deta & (bit - 1)).bit_count()) & 1
                _accumulate(out, k ^ bit, -c if odd else c)
    return out


def _det_elements(mat, m):
    """Leibniz determinant of a matrix of Elements (row order products)."""
    n = len(mat)
    det = Element.zero(m)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Element.one(m)
        zero = False
        for r in range(n):
            entry = mat[r][perm[r]]
            if entry.is_zero():
                zero = True
                break
            prod = gmul(prod, entry)
        if zero or prod.is_zero():
            continue
        det = det + (prod if sign > 0 else -prod)
    return det


def is_nondegenerate(X, delta):
    """Unit-determinant test of the symbol pairing of Delta_2 on generators.

    Returns ``(verdict, certificate)`` where the certificate is the exact
    determinant of the 2m x 2m pairing matrix over O_X.
    """
    m = X.m
    d2 = levels(delta).get(2)
    if d2 is None:
        return False, Element.zero(m)
    C = codec(m)
    sym = symbol(d2, 2)
    gens = [("y", i) for i in range(1, m + 1)] + [("eta", i) for i in range(1, m + 1)]
    mat = []
    for (k1, i1) in gens:
        row = []
        first = _symbol_partial(sym.terms, k1, i1, C)
        for (k2, i2) in gens:
            # arity 2 less two derivatives: element keys
            row.append(Element._from_store(
                m, _symbol_partial(first, k2, i2, C)))
        mat.append(row)
    det = _det_elements(mat, m)
    return det.terms.keys() == {0}, det


def test_nondegenerate_bv(corpus_case):
    name, X, _ = corpus_case
    ok, cert = is_nondegenerate(X, bv_quantisation(X))
    assert ok
    unit = ((0,) * X.m, ())
    assert set(decoded(cert)) == {(unit, 0)}
    assert decoded(cert)[(unit, 0)] in (Fraction(1), Fraction(-1))


def test_nondegenerate_failures():
    m = 2
    X = make_crit_locus(Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3, m)
    bad = Quantisation(m, {2: op_compose(Operator.d_y(m, 1), Operator.d_y(m, 2))})
    ok, _ = is_nondegenerate(X, bad)
    assert not ok
    ok, _ = is_nondegenerate(X, Quantisation.zero(m))
    assert not ok


# ---------------------------------------------------------------------------
# Filtration dimension tables
# ---------------------------------------------------------------------------

def test_filtration_empty_window():
    """The payload lists degrees -m..m and hbar exponents -1..hbar_max,
    with its settings; below the starting level everything vanishes."""
    X = corpus_locus(0)
    payload = filtration_dims("Ftilde", 0, 2, 0, X, 2)
    assert payload == {"dims": [{"degree": d, "hbar_exp": e, "dim": 0}
                                for d in (-1, 0, 1) for e in (-1, 0)],
                       "kind": "Ftilde", "level": 0, "p": 2}


def test_filtration_conv_splits_as_functions_plus_ftilde():
    """(G*Ftilde)^2 = A + Ftilde^2 as dimension tables."""
    for idx in (0, 4):
        X = corpus_locus(idx)
        degrees = range(-X.m, X.m + 1)
        hbar_exps = range(-1, 4)
        ydeg_cap = 2
        conv = filtration_table("GconvF", 2, 2, 3, X, ydeg_cap)
        ftilde = filtration_table("Ftilde", 0, 2, 3, X, ydeg_cap)
        akeys = [k for k in operator_keys_in_window(X, 0, ydeg_cap)]
        for d in degrees:
            a_dim = sum(1 for k in akeys if codec(X.m).degree(k) == d)
            for e in hbar_exps:
                expected = ftilde[(d, e)] + (a_dim if e == 0 else 0)
                assert conv[(d, e)] == expected


def test_filtration_g_level_counts_lower_order():
    """G^1 Ftilde^2 at hbar^1 consists of order <= 1 operators."""
    X = corpus_locus(3)
    ydeg_cap = 2
    degrees = range(-X.m, X.m + 1)
    table = filtration_table("G", 1, 2, 1, X, ydeg_cap)
    keys = operator_keys_in_window(X, 1, ydeg_cap)
    for d in degrees:
        assert table[(d, 1)] == sum(1 for k in keys
                                    if codec(X.m).degree(k) == d)


def test_filtration_gr_reindexing():
    """gr_G^i Ftilde^p at hbar^(j-1) has the dimension of arity-(j-i)
    symbols, for j >= p."""
    X = corpus_locus(0)
    ydeg_cap = 2
    degrees = range(-X.m, X.m + 1)
    p = 2
    for i in (0, 1, 2):
        gi = filtration_table("G", i, p, p + 2, X, ydeg_cap)
        gi1 = filtration_table("G", i + 1, p, p + 2, X, ydeg_cap)
        for (d, e) in gi:
            j = e + 1
            if j < p:
                continue
            gr = gi[(d, e)] - gi1[(d, e)]
            arity = j - i
            if arity < 0:
                assert gr == 0
                continue
            direct = sum(1 for k in arity_keys(X, arity, ydeg_cap)
                         if codec(X.m).degree(k) == d)
            assert gr == direct


@pytest.mark.parametrize("idx", [0, 4, 7], ids=["x^2", "x^3+y^3", "x^2+y^2+z^2"])
def test_degree_window_keys_match_nested_loops(idx):
    """The integer-packed window is the window of one ``Codec.encode`` per
    fixed part, list for list: (b, T), then S, then a, for order and
    y-degree caps 0..3; its keys of order exactly the cap are the oracle's
    exact-arity window, in the oracle's order."""
    X = corpus_locus(idx)
    for ydeg_cap, cap in itertools.product(range(4), range(4)):
        assert operator_keys_in_window(X, cap, ydeg_cap) \
            == operator_keys_by_encode(X, cap, ydeg_cap)
        assert arity_keys(X, cap, ydeg_cap) \
            == operator_keys_by_encode(X, cap, ydeg_cap, arity_exact=cap)


@pytest.mark.parametrize("idx", [0, 4, 7], ids=["x^2", "x^3+y^3", "x^2+y^2+z^2"])
def test_window_keys_of_one_degree_match_the_oracle(idx):
    """With ``degree`` d the window is the oracle's keys of degree |T| - |S|
    = d, in the oracle's order, for order and y-degree caps 0..3, and so
    are its keys of order exactly the cap; the degrees together give the
    whole window."""
    X = corpus_locus(idx)
    C = codec(X.m)
    for ydeg_cap, cap, exact in itertools.product(range(4), range(4),
                                                  (False, True)):
        oracle = operator_keys_by_encode(X, cap, ydeg_cap,
                                         arity_exact=cap if exact else None)
        parts = []
        for d in range(-X.m - 1, X.m + 2):
            part = (arity_keys(X, cap, ydeg_cap, d) if exact else
                    operator_keys_in_window(X, cap, ydeg_cap, degree=d))
            assert part == [k for k in oracle if C.degree(k) == d]
            parts += part
        assert Counter(parts) == Counter(oracle)


def test_window_cap_overflow_is_refused_before_enumerating(monkeypatch):
    """A cap of 2^15 (an order cap or a y-degree cap) is
    refused with ExponentOverflow before anything is enumerated; caps of
    2^15 - 1 at m = 1 give the oracle's window."""
    X = corpus_locus(0)
    big = codec(X.m).limit
    assert big == 2 ** 15
    assert operator_keys_in_window(X, 0, big - 1) == \
        operator_keys_by_encode(X, 0, big - 1)
    assert operator_keys_in_window(X, big - 1, 0) == \
        operator_keys_by_encode(X, big - 1, 0)

    def enumerated(*args):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(quantise, "iter_y_exponents", enumerated)
    monkeypatch.setattr(quantise, "eta_subsets", enumerated)
    for idx in (0, 4, 7):
        X = corpus_locus(idx)
        for args in [(big, 0), (0, big), (big, big), (big, 3), (1, big)]:
            with pytest.raises(ExponentOverflow):
                operator_keys_in_window(X, *args)


@pytest.mark.parametrize("idx", [1, 4, 7], ids=["x^3", "x^3+y^3", "x^2+y^2+z^2"])
def test_filtration_dims_match_definition(idx):
    """Each entry of the closed form counts the keys of one window
    enumeration at its own order bound: every kind, levels 0..3, p 0..3,
    ydeg_cap 0..3 and hbar exponents -1..5."""
    X = corpus_locus(idx)
    degrees = range(-X.m, X.m + 1)
    hbar_exps = range(-1, 6)
    windows = {}
    for kind in ("Ftilde", "G", "GconvF"):
        for level in range(4):
            for p, ydeg_cap in itertools.product(range(4), range(4)):
                table = filtration_table(kind, level, p, 5, X, ydeg_cap)
                assert list(table) == [(d, e) for d in degrees for e in hbar_exps]
                for e in hbar_exps:
                    bound = _order_bound(kind, level, p, e + 1)
                    if bound is None:
                        assert all(table[(d, e)] == 0 for d in degrees)
                        continue
                    if (bound, ydeg_cap) not in windows:
                        windows[bound, ydeg_cap] = Counter(
                            codec(X.m).degree(k) for k in
                            operator_keys_in_window(X, bound, ydeg_cap))
                    for d in degrees:
                        assert table[(d, e)] == windows[bound, ydeg_cap][d]


# ---------------------------------------------------------------------------
# Obstruction eigenvalues
# ---------------------------------------------------------------------------

def test_eigen_examples():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    rep = nu_eigen_analysis(X, 1, 2, 2)
    assert rep["eigenvalues"] == [1]
    assert rep["combined_scalar"] == -1
    assert rep["invertible"]
    rep = nu_eigen_analysis(X, 3, 1, 2)
    assert rep["eigenvalues"] == [3]
    assert rep["combined_scalar"] == 0
    assert not rep["invertible"]
    for k in (1, 2, 3):
        rep = nu_eigen_analysis(X, 0, k, 2)
        assert rep["eigenvalues"] == [0]
        assert rep["combined_scalar"] == 1 - k
        assert rep["invertible"] == (k != 1)


@pytest.mark.parametrize("k, jordan", [(1, False), (2, True)],
                         ids=["diag-0-1", "jordan-1"])
def test_eigen_non_scalar_block(monkeypatch, k, jordan):
    """A block that is not a scalar (forced here through a stand-in for the
    block's images) is refused: neither diag(0, 1, ..., 1) nor 1 + E_01 is
    lam0 times the identity, and no eigenvalue is reported for either."""
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    p = 1
    block = arity_keys(X, p, 0)
    n = len(block)
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    if jordan:
        mat[0][1] = 1
    else:
        mat[0][0] = 0
    hbar = codec(X.m).hbar

    def block_images(X, keys, slots):
        assert keys == block
        return [{block[r] + hbar: mat[r][col] for r in range(n) if mat[r][col]}
                for col in range(n)]

    monkeypatch.setattr(quantise, "_nu_block", block_images)
    assert n > 2
    with pytest.raises(NotCertified):
        nu_eigen_analysis(X, p, k, 2)


def _cubes(m):
    return make_crit_locus(
        sum((Element.y(m, i) ** 3 for i in range(2, m + 1)), Element.y(m, 1) ** 3),
        m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eigen_reports_match_the_windowed_oracle(m):
    """The y-degree-0 block gives the report of the check on the whole
    window |a| <= cap, field for field: p 0..3, k 1..2 and caps 0..3."""
    X = _cubes(m)
    for p, k, cap in itertools.product(range(4), (1, 2), range(4)):
        assert nu_eigen_analysis(X, p, k, cap) == \
            windowed_eigen_analysis(X, p, k, cap), (p, k, cap)


@pytest.mark.parametrize("spoil", [
    lambda C, keys, images: images[-1].update({keys[0] + C.hbar: 1}),
    lambda C, keys, images: images[0].update({keys[0] + C.y[0] + C.hbar: 1}),
    lambda C, keys, images: images[0].update({keys[0] + C.dy[0] + C.hbar: 1}),
    lambda C, keys, images: images[0].update({keys[0] + 2 * C.hbar: 1}),
    lambda C, keys, images: images[3].update({keys[3] + C.hbar: 3}),
], ids=["off-diagonal-arity-p-ydeg-0", "arity-p-ydeg-1", "arity-p+1",
        "diagonal-at-hbar^2", "other-scalar"])
def test_eigen_refuses_every_term_it_does_not_certify(monkeypatch, spoil):
    """A term of arity >= p in an image of the y-degree-0 block other than
    lam0 rho hbar is refused, never dropped: an off-diagonal arity-p hbar^1
    term at y-degree 0 or 1, an arity-(p + 1) term, the diagonal at hbar^2,
    and a second scalar on the diagonal."""
    X = _cubes(2)
    real = quantise._banded_images

    def spoiled(m, keys, *args):
        images = real(m, keys, *args)
        spoil(codec(m), keys, images)
        return images

    monkeypatch.setattr(quantise, "_banded_images", spoiled)
    with pytest.raises(NotCertified, match="not a scalar"):
        nu_eigen_analysis(X, 2, 2, 2)


def test_eigen_keeps_the_lower_filtration_step(monkeypatch):
    """Terms of arity < p are zero on gr_p: adding some to every image, at
    several hbar exponents, leaves the report as it is."""
    X = _cubes(2)
    want = nu_eigen_analysis(X, 2, 2, 2)
    real = quantise._banded_images
    C = codec(X.m)
    lower = {0: 5, C.dy[1] + C.y[0]: -1, C.deta_bits[0] + 2 * C.hbar: 7}

    def with_lower(m, keys, *args):
        return [{**image, **lower} for image in real(m, keys, *args)]

    monkeypatch.setattr(quantise, "_banded_images", with_lower)
    assert nu_eigen_analysis(X, 2, 2, 2) == want


def test_eigen_refuses_a_left_factor_with_d_y(monkeypatch):
    """With a d_y in a left factor of nu's slots, y^a need not commute with
    it, so the y-degree-0 block proves nothing about the others: refused."""
    X = _cubes(2)
    real = derham._nu_slots

    def with_dy(w, delta):
        slots, mu_w = real(w, delta)
        parity, left, right = slots[0]
        return [(parity, [*left, (codec(w.m).dy[1], 1)], right),
                *slots[1:]], mu_w

    monkeypatch.setattr(derham, "_nu_slots", with_dy)
    with pytest.raises(NotCertified, match="carries d_y"):
        nu_eigen_analysis(X, 2, 2, 2)


def test_eigen_cost_does_not_grow_with_the_cap(monkeypatch):
    """The block is the arity-p keys of y-degree 0, banded in one call at
    every cap; block_dim is C(cap + m, m) times its size, up to a cap of
    2^15 - 1, and a cap of 2^15 is refused with ExponentOverflow."""
    X = _cubes(3)
    real, calls = quantise._banded_images, []

    def counting(m, keys, *args):
        calls.append(list(keys))
        return real(m, keys, *args)

    monkeypatch.setattr(quantise, "_banded_images", counting)
    block = arity_keys(X, 2, 0)
    assert len(block) == 144
    for cap in (0, 6, 40, 2 ** 15 - 1):
        calls.clear()
        assert nu_eigen_analysis(X, 2, 2, cap)["block_dim"] == \
            comb(cap + 3, 3) * 144
        assert calls == [block]
    assert nu_eigen_analysis(X, 2, 2, 40)["block_dim"] == 1777104
    with pytest.raises(ExponentOverflow):
        nu_eigen_analysis(X, 2, 2, 2 ** 15)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eigen_refuses_a_p_that_overflows_before_the_block(monkeypatch, m):
    """nu's right factors carry d_y_i, so on the block's d_y_i^p they reach
    d_y_i^(p + 1): p = 2^15 - 1 passes the range check of a setting but is
    refused with ExponentOverflow naming p, and no block is enumerated."""
    X = _cubes(m)

    def no_block(m, p):
        raise AssertionError("the order-p block was built")

    monkeypatch.setattr(quantise, "_order_keys", no_block)
    with pytest.raises(ExponentOverflow,
                       match=r"^p must be below 32767, not 32767: "):
        nu_eigen_analysis(X, 2 ** 15 - 1, 1, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eigen_block_is_the_filtered_window(monkeypatch, m):
    """The eigen block, enumerated at order p alone, is the window of order
    cap p at y-degree 0 filtered to order p, key for key, for p 0..6; it is
    what ``nu_eigen_analysis`` hands to ``_nu_block``, and no window of lower
    order is enumerated."""
    X = _cubes(m)
    blocks = []

    def spy(X, keys, slots):
        blocks.append(keys)
        return real(X, keys, slots)

    real = quantise._nu_block
    monkeypatch.setattr(quantise, "_nu_block", spy)
    monkeypatch.setattr(quantise, "operator_keys_in_window", None)
    for p in range(7):
        block = _order_keys(m, p)
        assert block == arity_keys(X, p, 0), p
        nu_eigen_analysis(X, p, 1, 2)
        assert blocks.pop() == block


def test_eigen_window_independence():
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    small = nu_eigen_analysis(X, 2, 2, 1)
    big = nu_eigen_analysis(X, 2, 2, 3)
    assert small["eigenvalues"] == big["eigenvalues"] == [2]
    assert small["combined_scalar"] == big["combined_scalar"] == -1


def test_quantisation_validation():
    m = 1
    order3 = op_compose(op_compose(Operator.d_y(m, 1), Operator.d_y(m, 1)),
                        Operator.d_y(m, 1))
    with pytest.raises(ValueError):
        Quantisation(m, {2: order3})
    with pytest.raises(ValueError):
        Quantisation(m, {1: Operator.d_y(m, 1)})
    with pytest.raises(ValueError):
        Quantisation(m, {2: Operator.d_y(m, 1).scale(HSeries.monomial(1))})


def test_quantisation_arithmetic_is_a_plain_operator():
    """Only the constructor, whose level bound a sum or a product need not
    keep, and ``zero`` make a Quantisation; a value computed from one is a
    plain Operator, though it compares equal by its terms."""
    m = 2
    bv = bv_quantisation(corpus_locus(3))
    hbar = HSeries.monomial(1)
    for value in (bv + bv, bv - bv, -bv, bv + 1, 1 - bv, bv.scale(2),
                  2 * bv, bv * hbar, op_compose(bv, bv), bv.order_part(2)):
        assert type(value) is Operator
    assert type(Quantisation.zero(m)) is Quantisation
    assert bv + Operator.zero(m) == bv
    # Delta / hbar moves Delta_2 to hbar^0, a level the constructor refuses
    with pytest.raises(ValueError):
        Quantisation(m, levels(bv.scale(HSeries.monomial(-1))))


def test_koszul_operator_squares_to_zero(corpus_case):
    name, X, _ = corpus_case
    dk = koszul_operator(X)
    assert op_compose(dk, dk).is_zero()
    assert op_order(dk) == 1


# each library call with integer settings: the settings it checks, and
# the call, in-range defaults filled in for the settings not given
_SETTING_CALLS = {
    "window": (("order_cap", "ydeg_cap", "hbar_max"),
               lambda X, order_cap=0, ydeg_cap=0, hbar_max=2:
               SearchWindow(order_cap, ydeg_cap, hbar_max)),
    "keys": (("order_cap", "ydeg_cap"),
             lambda X, order_cap=1, ydeg_cap=1:
             operator_keys_in_window(X, order_cap, ydeg_cap)),
    "filtration": (("level", "p", "hbar_max", "ydeg_cap"),
                   lambda X, level=0, p=2, hbar_max=4, ydeg_cap=2:
                   filtration_dims("Ftilde", level, p, hbar_max, X, ydeg_cap)),
    "eigen": (("p", "ydeg_cap"),
              lambda X, p=2, ydeg_cap=2: nu_eigen_analysis(X, p, 2, ydeg_cap)),
}
# every setting at -1 and at 2^15, but the hbar_max of a search window,
# which bounds no packed field
_OUT_OF_RANGE = [(f"{fn}-{name}-{tag}", fn, name, value)
                 for fn, (names, _) in _SETTING_CALLS.items()
                 for name in names
                 for tag, value in (("neg", -1), ("2^15", 2 ** 15))
                 if (fn, name, value) != ("window", "hbar_max", 2 ** 15)]


@pytest.mark.parametrize("call, exc, message", [
    (lambda X: filtration_dims("bogus", 0, 2, 4, X, 2), ValueError,
     "unknown filtration kind 'bogus'"),
    (lambda X: filtration_dims("G", -1, 2, 4, X, 2), QShiftError,
     "level must be >= 0, not -1"),
    (lambda X: nu_eigen_analysis(X, 2, 0, 2), ValueError,
     "need p >= 0 and k >= 1"),
    *((lambda X, m=m, cap=cap: nu_eigen_analysis(_cubes(m), 2, 2, cap),
       QShiftError, f"ydeg_cap must be >= 0, not {cap}")
      for cap in (-1, -3) for m in (1, 2, 3)),
    *((lambda X, m=m, cap=cap: filtration_dims("Ftilde", 0, 2, 4, _cubes(m),
                                               cap),
       QShiftError, f"ydeg_cap must be >= 0, not {cap}")
      for cap in (-1, -3) for m in (1, 2, 3)),
    *((lambda X, fn=fn, name=name, value=value:
       _SETTING_CALLS[fn][1](X, **{name: value}),
       QShiftError if value < 0 else ExponentOverflow,
       f"{name} must be >= 0, not {value}" if value < 0 else
       f"{name} must be below 32768, not {value}")
      for _, fn, name, value in _OUT_OF_RANGE),
], ids=["label-kind", "label-level", "eigen-k0",
        *(f"{call}-cap{cap}-m{m}" for call in ("eigen", "filtration")
          for cap in (-1, -3) for m in (1, 2, 3)),
        *(case[0] for case in _OUT_OF_RANGE)])
def test_labels_and_eigen_refuse_bad_input(call, exc, message):
    """A filtration table refuses an unknown kind and the eigen analysis
    k = 0.  Every integer setting of a search window, an operator window,
    a filtration table and the eigen analysis is refused below 0 with
    QShiftError (a negative y-degree cap would size an empty window, or
    make ``comb`` raise), and from 2^15 on with ExponentOverflow, with the
    message that the flag of the same name gets."""
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    with pytest.raises(exc) as err:
        call(X)
    assert type(err.value) is exc and str(err.value) == message


def test_in_range_settings_are_taken():
    """Each call of ``_SETTING_CALLS`` answers at 0 and at 2^15 - 1 for
    each setting in turn (the search window, whose hbar_max bounds no
    packed field, also at 2^15 and beyond), so the refusals above are
    those of the values alone.  Left out at 2^15 - 1: the operator
    window's caps, where its key list is long (its own test takes them at
    m = 1), and the eigen p, whose block grows with p."""
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    for fn, (names, call) in _SETTING_CALLS.items():
        for name in names:
            call(X, **{name: 0})
            if fn != "keys" and (fn, name) != ("eigen", "p"):
                call(X, **{name: 2 ** 15 - 1})
    for hbar_max in (2 ** 15, 10 ** 9):
        assert SearchWindow(0, 0, hbar_max).hbar_max == hbar_max


@pytest.mark.parametrize("kind", ["Ftilde", "G", "GconvF"])
def test_filtration_below_hbar_minus_one_is_empty(kind):
    """Below hbar^-1 every filtration piece is empty: at hbar exponent -2,
    ``_order_bound`` has j = -1 < 0.  So the table starts at hbar^-1."""
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    assert _order_bound(kind, 0, 0, -1) is None
    table = filtration_table(kind, 0, 0, 2, X, 2)
    assert min(e for _, e in table) == -1
