from fractions import Fraction

import pytest

from qshift.coefficients import HSeries, _accumulate, codec
from qshift.cohomology import _unit_weights
from qshift.derham import DRWord
from qshift.diffops import Operator, Polyvector, _product_into
from qshift.duality import transpose
from qshift.errors import NoConsistentProfile
from qshift.gca import Element, koszul_operator, make_crit_locus
from qshift.quantise import (Quantisation, filtration_dims,
                             operator_keys_in_window)

# The standard singularity corpus: (name, builder, m, milnor number).
CORPUS = [
    ("x^2", lambda: Element.y(1, 1) ** 2, 1, 1),
    ("x^3", lambda: Element.y(1, 1) ** 3, 1, 2),
    ("x^4", lambda: Element.y(1, 1) ** 4, 1, 3),
    ("x^2+y^2", lambda: Element.y(2, 1) ** 2 + Element.y(2, 2) ** 2, 2, 1),
    ("x^3+y^3", lambda: Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2, 4),
    ("x^3+y^5", lambda: Element.y(2, 1) ** 3 + Element.y(2, 2) ** 5, 2, 8),
    ("x^2+y^3", lambda: Element.y(2, 1) ** 2 + Element.y(2, 2) ** 3, 2, 2),
    ("x^2+y^2+z^2",
     lambda: Element.y(3, 1) ** 2 + Element.y(3, 2) ** 2 + Element.y(3, 3) ** 2,
     3, 1),
    ("x^3+x*y", lambda: Element.y(2, 1) ** 3 + Element.y(2, 1) * Element.y(2, 2),
     2, 1),
]

CORPUS_IDS = [name for (name, _, _, _) in CORPUS]


def corpus_locus(index):
    name, builder, m, mu = CORPUS[index]
    return make_crit_locus(builder(), m)


def arity_keys(X, arity, ydeg_cap, degree=None):
    """The keys of order exactly ``arity`` in the window of order cap
    ``arity``, in the window's order."""
    C = codec(X.m)
    return [k for k in operator_keys_in_window(X, arity, ydeg_cap, degree)
            if C.order(k) == arity]


def filtration_table(kind, level, p, hbar_max, X, ydeg_cap):
    """The ``filtration_dims`` payload's dimensions as {(degree, hbar
    exponent): dim}, in the payload's order."""
    payload = filtration_dims(kind, level, p, hbar_max, X, ydeg_cap)
    return {(row["degree"], row["hbar_exp"]): row["dim"]
            for row in payload["dims"]}


@pytest.fixture(params=range(len(CORPUS)), ids=CORPUS_IDS)
def corpus_case(request):
    name, builder, m, mu = CORPUS[request.param]
    return name, make_crit_locus(builder(), m), mu


def random_element(rng, m, max_ydeg=2, nterms=2, with_hbar=False):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, max_ydeg) for _ in range(m))
        eta = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        c = rng.randint(-3, 3)
        if c == 0:
            c = 1
        exp = rng.randint(0, 2) if with_hbar else 0
        terms[(a, eta)] = HSeries.monomial(exp, c)
    return Element(m, terms)


def random_operator(rng, m, max_order=3, max_ydeg=2, nterms=2, with_hbar=False):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, max_ydeg) for _ in range(m))
        eta = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        order = rng.randint(0, max_order)
        tsize = rng.randint(0, min(order, m))
        deta = tuple(sorted(rng.sample(range(1, m + 1), tsize)))
        b = [0] * m
        for _ in range(order - tsize):
            b[rng.randrange(m)] += 1
        c = rng.randint(-3, 3)
        if c == 0:
            c = 2
        exp = rng.randint(0, 2) if with_hbar else 0
        terms[(a, eta, tuple(b), deta)] = HSeries.monomial(exp, c)
    return Operator(m, terms)


def random_homogeneous_operator(rng, m, order, degree, max_ydeg=2, nterms=2):
    """Random operator whose monomials all have the given derivative order
    and cohomological degree; may come out zero for impossible shapes."""
    terms = {}
    for _ in range(nterms * 3):
        tsize = rng.randint(0, min(order, m))
        deta = tuple(sorted(rng.sample(range(1, m + 1), tsize)))
        ssize = tsize - degree
        if ssize < 0 or ssize > m:
            continue
        eta = tuple(sorted(rng.sample(range(1, m + 1), ssize)))
        b = [0] * m
        for _ in range(order - tsize):
            b[rng.randrange(m)] += 1
        a = tuple(rng.randint(0, max_ydeg) for _ in range(m))
        c = rng.randint(-2, 2)
        if c == 0:
            c = 1
        terms[(a, eta, tuple(b), deta)] = HSeries.const(c)
        if len(terms) >= nterms:
            break
    return Operator(m, terms)


def random_quantisation(rng, m, levels=(2, 3), max_ydeg=1):
    coeffs = {}
    for j in levels:
        op = random_homogeneous_operator(rng, m, rng.randint(1, j), 1,
                                         max_ydeg=max_ydeg)
        if not op.is_zero():
            coeffs[j] = op
    return Quantisation(m, coeffs)


def random_polyvector(rng, m, arity, max_ydeg=2, nterms=2):
    terms = {}
    for _ in range(nterms * 3):
        tsize = rng.randint(0, min(arity, m))
        deta = tuple(sorted(rng.sample(range(1, m + 1), tsize)))
        b = [0] * m
        for _ in range(arity - tsize):
            b[rng.randrange(m)] += 1
        a = tuple(rng.randint(0, max_ydeg) for _ in range(m))
        eta = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        c = rng.randint(-2, 2)
        if c == 0:
            c = 1
        terms[(a, eta, tuple(b), deta)] = HSeries.const(c)
        if len(terms) >= nterms:
            break
    return Polyvector(m, arity, terms)


def random_hseries(rng, min_exp=-1, max_exp=4, nterms=3):
    coeffs = {}
    for _ in range(nterms):
        e = rng.randint(min_exp, max_exp)
        c = rng.randint(-5, 5)
        if c:
            coeffs[e] = coeffs.get(e, 0) + c
    return HSeries(coeffs)


def f_weights(X):
    """``cohomology._unit_weights`` on the exponent vectors of f's
    monomials: the weights that ``twisted_derham_dims`` finds, or None."""
    C = codec(X.m)
    return _unit_weights([C.y_exponents(k) for k in X.f.terms], X.m)


def sparse_rows(dense):
    """Dense rows of rationals as the sparse rows ``{col: value}`` that the
    rank/solve kernel takes; zero cells are left out."""
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def decoded(x):
    """The store of an element, operator or polyvector read through the
    codec: {(monomial tuple, hbar exponent): coefficient}."""
    C = codec(x.m)
    n = 2 if isinstance(x, Element) else 4
    return {(key[:n], key[4]): c
            for key, c in ((C.decode(k), c) for k, c in x.terms.items())}


def decoded_words(w):
    """The store of a de Rham word read through the codec: {(hbar exponent,
    word of (a, eta) tuples): coefficient}."""
    C = codec(w.m)
    return {(e, tuple(C.decode(k)[:2] for k in ws)): c
            for (e, ws), c in w.terms.items()}


def unit_key(m):
    """The boundary tuple of the unit element monomial."""
    return ((0,) * m, ())


def mono_mul(k1, k2, C):
    """The product of two element monomial keys, the reference for the
    product kernel on elements: (key, sign), or (None, 0) when the eta
    masks meet.  The y fields and hbar exponents add as keys; eta_S eta_U
    is their merge, signed by the pairs i in S, j in U with i > j."""
    s1, s2 = k1 & C.eta, k2 & C.eta
    if s1 & s2:
        return None, 0
    swaps = sum((s1 & ~(2 * bit - 1)).bit_count()
                for bit in C.eta_bits if s2 & bit)
    return C.check((k1 ^ s1) + (k2 ^ s2)) | s1 | s2, -1 if swaps & 1 else 1


def dr_total_d_reference(X, w):
    """The total differential term by term, the reference for
    ``derham.dr_total_d``: per factor a_i, with p the degree of the
    interleaved factors to its left, delta(a_i) at (-1)^p, e.a_i at
    (-1)^p and -(-1)^deg(a_i) a_i.e, and per slot symbol e.e at (-1)^p."""
    m = w.m
    C = codec(m)
    out, images = {}, {}
    K = koszul_operator(X).terms.items()
    for (e, ws), c in w.terms.items():
        r = len(ws) - 1
        prefix = 0
        for i, mono in enumerate(ws):
            psign = -1 if prefix % 2 else 1
            if mono & C.eta and mono not in images:
                _product_into(images.setdefault(mono, {}), K, ((mono, 1),), C,
                              bracket=True)
            for ikey, ic in images.get(mono, {}).items():
                _accumulate(out, (e, ws[:i] + (ikey,) + ws[i + 1:]),
                            psign * c * ic)
            _accumulate(out, (e, ws[:i] + (0,) + ws[i:]), psign * c)
            degree = C.degree(mono)
            asign = -1 if degree % 2 else 1
            _accumulate(out, (e, ws[:i + 1] + (0,) + ws[i + 1:]),
                        -psign * asign * c)
            prefix += degree
            if i < r:
                esign = -1 if prefix % 2 else 1
                _accumulate(out, (e, ws[:i + 1] + (0,) + ws[i + 1:]),
                            esign * c)
                prefix += 1
    return DRWord._from_store(m, out, w.hodge_weight)


def degree_part(x, d):
    """The terms of an element or operator of cohomological degree d."""
    C = codec(x.m)
    return x._select(lambda k: C.degree(k) == d)


def hbar_component(D, e):
    """hbar-free Operator collecting the hbar^e coefficient of D."""
    C = codec(D.m)
    shift = e << C.hbar_shift
    return Operator._from_store(D.m, {k - shift: c for k, c in D.terms.items()
                                      if k >> C.hbar_shift == e})


def levels(delta):
    """The levels {j: Delta_j} of a quantisation series: the hbar-free
    coefficient of hbar^(j-1), for each j where it is nonzero."""
    return {e + 1: hbar_component(delta, e) for e in delta.hbar_exponents()}


def star_by_level(delta):
    """The star involution level by level, the reference for
    ``duality.star``: Delta_j -> (-1)^j Delta_j^t, so that
    Delta*(hbar) = -Delta^t(-hbar)."""
    return Quantisation(delta.m, {
        j: transpose(op).scale(1 if j % 2 == 0 else -1)
        for j, op in levels(delta).items()})


def sigma_by_level(delta):
    """hbar^2 d(Delta)/d(hbar) level by level, the reference for
    ``quantise.sigma_tangent``: Sum_j (j - 1) Delta_j hbar^j."""
    out = Operator.zero(delta.m)
    for j, op in levels(delta).items():
        out = out + op.scale(HSeries.monomial(j, j - 1))
    return out


def star_fixed_slot_dimension(X, j, k, keys):
    """Dimensions (fixed, total) of the star action on the gr_G^k slot at
    hbar^(j-1): basis symbols of arity j-k, star acting through the slot."""
    arity = j - k
    C = codec(X.m)
    basis = [key for key in keys if C.order(key) == arity]
    fixed = 0
    sign = 1 if j % 2 == 0 else -1
    for key in basis:
        op = Operator._from_store(X.m, {key: 1})
        image = transpose(op).scale(sign).order_part(arity)
        if image == op:
            fixed += 1
        elif image != op.scale(-1):
            # star must act by a scalar on each symbol monomial
            raise NoConsistentProfile("star does not act diagonally on symbols")
    return fixed, len(basis)


# ---------------------------------------------------------------------------
# Printing problem files: the inverse of ``cli.parse_problem``
# ---------------------------------------------------------------------------

def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_polynomial(f, names) -> str:
    """Canonical printable form of a polynomial over the declared names."""
    if f.is_zero():
        return "0"
    C = codec(f.m)
    parts = []
    # descending in the decoded ((a, eta), e), which orders the y exponents
    for (a, _, _, _, _), coeff in sorted(
            ((C.decode(k), c) for k, c in f.terms.items()),
            key=lambda t: (t[0][:2], t[0][4]), reverse=True):
        mono = []
        for i, e in enumerate(a):
            if e == 1:
                mono.append(names[i])
            elif e > 1:
                mono.append(f"{names[i]}^{e}")
        body = "*".join(mono)
        c = abs(coeff)
        if not body:
            piece = _format_rational(c)
        elif c == 1:
            piece = body
        else:
            piece = f"{_format_rational(c)}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def print_problem(problem) -> str:
    """Canonical text; re-parsing yields an identical structure."""
    return (f"vars {' '.join(problem.vars)};\n"
            f"f = {format_polynomial(problem.f, problem.vars)};\n")
