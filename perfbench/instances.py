"""Seeded random inputs for the `operators` workload.

Two families, drawn from the distributions of the acceptance suite's
chain-identity and Schouten-coherence criteria:

* chain instances ``(w, Delta)``: a cup product of one to three length-1
  or 1-form words, and a random quantisation with levels 2 and 3 into
  which, with probability 1/2, a term with a generically nonzero
  master-equation residual is injected;
* Schouten pairs ``(P, Q)`` of random polyvectors with arities 1..3 on
  m = 1 or 2 generators.

The structure of every instance (the number of generators, word pieces,
whether a piece is a 1-form, derivative orders and arities, exponents and
odd generators of each monomial, whether the residual term is injected)
is drawn from a stream fixed per instance: ``SHAPE_SEED``, the family and
the index.  The workload seed draws the coefficients.  Each instance still
follows the acceptance distribution, but the work of a pass does not
depend on the seed: with the structure seeded too, one instance's cost
ranges over 300x (a 1-form d(1) = 0 kills a word) and a pass's total over
2x from seed to seed.  The same seed gives the same instances, and the
program only ever sees the generated values.
"""

from __future__ import annotations

import random

from qshift.coefficients import HSeries
from qshift.derham import cup, dr_d, dr_of
from qshift.diffops import Operator, Polyvector
from qshift.gca import Element
from qshift.quantise import Quantisation

SHAPE_SEED = 20150828


class Draw:
    """Two random streams: ``shape`` is fixed per instance, ``coeffs`` is
    the workload seed's."""

    def __init__(self, seed):
        self.coeffs = random.Random(seed)
        self.shape = None

    def begin(self, family, index):
        """Start the shape stream of one instance, whatever came before."""
        self.shape = random.Random(f"{SHAPE_SEED}:{family}:{index}")

    def nonzero(self, lo, hi, fallback):
        c = self.coeffs.randint(lo, hi)
        return c if c else fallback

    def subset(self, m, size):
        return tuple(sorted(self.shape.sample(range(1, m + 1), size)))

    def spread(self, m, total):
        """Exponent vector of the given total degree, one unit at a time."""
        b = [0] * m
        for _ in range(total):
            b[self.shape.randrange(m)] += 1
        return tuple(b)

    def exponents(self, m, cap):
        return tuple(self.shape.randint(0, cap) for _ in range(m))


def _element(draw, m):
    """One monomial y^a eta_S with a ydeg <= 1 and a small coefficient."""
    a = draw.exponents(m, 1)
    eta = draw.subset(m, draw.shape.randint(0, m))
    return Element(m, {(a, eta): HSeries.monomial(0, draw.nonzero(-3, 3, 1))})


def _word(draw, m):
    pieces = []
    for _ in range(draw.shape.randint(1, 3)):
        a = _element(draw, m)
        pieces.append(dr_d(a) if draw.shape.random() < 0.6 else dr_of(a))
    w = pieces[0]
    for piece in pieces[1:]:
        w = cup(w, piece)
    return w


def _homogeneous_operator(draw, m, order, degree, max_ydeg, nterms=2):
    """Operator of one derivative order and cohomological degree; may be 0."""
    terms = {}
    for _ in range(nterms * 3):
        tsize = draw.shape.randint(0, min(order, m))
        deta = draw.subset(m, tsize)
        ssize = tsize - degree
        if ssize < 0 or ssize > m:
            continue
        eta = draw.subset(m, ssize)
        b = draw.spread(m, order - tsize)
        a = draw.exponents(m, max_ydeg)
        terms[(a, eta, b, deta)] = HSeries.const(draw.nonzero(-2, 2, 1))
        if len(terms) >= nterms:
            break
    return Operator(m, terms)


def _delta(draw, m):
    coeffs = {}
    for j in (2, 3):
        op = _homogeneous_operator(draw, m, draw.shape.randint(1, j), 1,
                                   max_ydeg=1)
        if not op.is_zero():
            coeffs[j] = op
    if draw.shape.random() < 0.5:
        i = draw.shape.randint(1, m)
        b = tuple(2 if j == i - 1 else 0 for j in range(m))
        spoiler = Operator(m, {((0,) * m, (i,), b, ()):
                               HSeries.const(draw.coeffs.randint(1, 3))})
        coeffs[2] = coeffs.get(2, Operator.zero(m)) + spoiler
    return Quantisation(m, coeffs)


def _polyvector(draw, m, arity, nterms=2):
    terms = {}
    for _ in range(nterms * 3):
        tsize = draw.shape.randint(0, min(arity, m))
        deta = draw.subset(m, tsize)
        b = draw.spread(m, arity - tsize)
        a = draw.exponents(m, 2)
        eta = draw.subset(m, draw.shape.randint(0, m))
        terms[(a, eta, b, deta)] = HSeries.const(draw.nonzero(-2, 2, 1))
        if len(terms) >= nterms:
            break
    return Polyvector(m, arity, terms)


def chain_instances(draw, count):
    """``count`` triples (word, Delta, m); m alternates between 2 and 1."""
    out = []
    for trial in range(count):
        draw.begin("chain", trial)
        m = 1 if trial % 2 else 2
        delta = _delta(draw, m)
        out.append((_word(draw, m), delta, m))
    return out


def schouten_pairs(draw, count):
    """``count`` triples (P, Q, p + q - 1) of nonzero polyvectors."""
    out = []
    attempt = 0
    while len(out) < count:
        draw.begin("schouten", attempt)
        attempt += 1
        m = draw.shape.randint(1, 2)
        p, q = draw.shape.randint(1, 3), draw.shape.randint(1, 3)
        P = _polyvector(draw, m, p)
        Q = _polyvector(draw, m, q)
        if P.is_zero() or Q.is_zero():
            continue
        out.append((P, Q, p + q - 1))
    return out
