import pytest

from qshift.coefficients import HSeries, codec
from qshift.diffops import Operator, Polyvector
from qshift.gca import Element, make_crit_locus
from qshift.quantise import Quantisation

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
