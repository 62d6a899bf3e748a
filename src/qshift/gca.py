"""Free graded-commutative algebra Q[y_1..y_m] (x) Lambda[eta_1..eta_m]
modelling the derived critical locus of a polynomial f, with the Koszul
differential given by contraction with df.

Grading is cohomological: deg(y_i) = 0, deg(eta_i) = -1.  A monomial
y^a eta_S is a packed key of ``coefficients.Codec`` with no derivative
part; at the boundary it reads as the tuple ``(a, S)``, with ``a`` a
length-m tuple of naturals and ``S`` a strictly increasing tuple of
indices in 1..m.  Koszul signs are generated purely by transpositions of
odd symbols relative to this canonical order; every other module inherits
that convention.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import (HSeries, _accumulate, _shuffle, _Store, codec,
                           solve_rational)
from .errors import NotPolynomial, ZeroPolynomial


class AlgebraSignature:
    """Number of y-variables plus optional quasi-homogeneity weights."""

    __slots__ = ("m", "weights")

    def __init__(self, m, weights=None):
        if m < 1:
            raise ValueError("need at least one variable")
        self.m = int(m)
        self.weights = tuple(Fraction(w) for w in weights) if weights else None

    def __eq__(self, other):
        return (isinstance(other, AlgebraSignature)
                and self.m == other.m and self.weights == other.weights)

    def __repr__(self):
        return f"AlgebraSignature(m={self.m}, weights={self.weights})"


class Element(_Store):
    """Sparse sum of monomials y^a * eta_S * hbar^e: a store {packed key:
    canonical coefficient}."""

    __slots__ = ()
    _arity = 2

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(m):
        return Element(m)

    @staticmethod
    def one(m):
        return Element._from_store(m, {0: 1})

    @staticmethod
    def const(m, c):
        return Element(m, {((0,) * m, ()): c})

    @staticmethod
    def y(m, i, power=1):
        e = [0] * m
        e[i - 1] = power
        return Element._from_store(m, {codec(m).encode(e): 1})

    @staticmethod
    def eta(m, i):
        return Element._from_store(m, {codec(m).eta_bits[i - 1]: 1})

    # -- queries ------------------------------------------------------------
    def is_polynomial(self):
        """No eta factors and hbar-free coefficients."""
        rest = ~codec(self.m).y_block
        return not any(k & rest for k in self.terms)

    # -- arithmetic ----------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HSeries)):
            return self.scale(other)
        return gmul(self, other)

    def __pow__(self, n):
        out = Element.one(self.m)
        for _ in range(int(n)):
            out = gmul(out, self)
        return out

    def partial_y(self, i):
        """Formal partial derivative with respect to y_i (even, no signs)."""
        C = codec(self.m)
        off, unit = C.y_off[i - 1], C.y[i - 1]
        out = {}
        for k, c in self.terms.items():
            a = k >> off & C.field
            if a:
                _accumulate(out, k - unit, c * a)
        return Element._from_store(self.m, out)


def _mono_mul(k1, k2, C):
    """Product of two element monomial keys: (key, sign) or (None, 0).  The
    y fields and hbar exponents add as keys, and the eta masks merge with
    their shuffle sign."""
    s1, s2 = k1 & C.eta, k2 & C.eta
    if s1 & s2:
        return None, 0
    return C.check((k1 ^ s1) + (k2 ^ s2)) | s1 | s2, _shuffle(s1, s2)


def gmul(a: Element, b: Element) -> Element:
    """Graded-commutative product with Koszul signs, accumulated straight
    into the result; each pair of terms is multiplied once."""
    if a.m != b.m:
        raise ValueError("signature mismatch")
    C = codec(a.m)
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key, sign = _mono_mul(ka, kb, C)
            if key is not None:
                _accumulate(out, key, sign * ca * cb)
    return Element._from_store(a.m, out)


class CritLocus:
    """A polynomial f with its cached partials, modelling Crit(f) derived."""

    __slots__ = ("signature", "f", "partials", "names")

    def __init__(self, signature, f, partials, names=None):
        self.signature = signature
        self.f = f
        self.partials = partials
        self.names = names

    @property
    def m(self):
        return self.signature.m

    def __repr__(self):
        return f"CritLocus(m={self.m}, f={self.f})"


def detect_weights(f: Element, m: int):
    """Solve sum_i w_i a_i = 1 over the exponent vectors of f's monomials.

    Returns a tuple of positive weights making f quasi-homogeneous of
    weight 1, or None when no such solution exists.  Variables absent from
    every monomial get weight 1.
    """
    exps = [codec(m).y_exponents(k) for k in f.terms]
    rows = [{i: e for i, e in enumerate(a) if e} for a in exps]
    sol = solve_rational(rows, dict.fromkeys(range(len(rows)), 1), m)
    if sol is None:
        return None
    used = {i for row in rows for i in row}
    weights = [sol[i] if i in used else 1 for i in range(m)]
    if any(w <= 0 for w in weights):
        return None
    for a in exps:
        if sum(w * e for w, e in zip(weights, a)) != 1:
            return None
    return tuple(weights)


def make_crit_locus(f: Element, m: int, names=None) -> CritLocus:
    """Build the critical-locus data of f, caching partials and weights;
    ``names`` are the declared variables, for messages."""
    if f.m != m:
        raise ValueError("signature mismatch")
    if f.is_zero():
        raise ZeroPolynomial("f = 0")
    if not f.is_polynomial():
        raise NotPolynomial("f must be an hbar-free polynomial in y only")
    partials = [f.partial_y(i) for i in range(1, m + 1)]
    weights = detect_weights(f, m)
    return CritLocus(AlgebraSignature(m, weights), f, partials, names)


def apply_koszul_delta(X: CritLocus, a: Element) -> Element:
    """Degree +1 derivation with delta(y_i) = 0, delta(eta_i) = df/dy_i."""
    if a.m != X.m:
        raise ValueError("signature mismatch")
    C = codec(X.m)
    out = {}
    for k, c in a.terms.items():
        for bit, partial in zip(C.eta_bits, X.partials):
            if k & bit:
                # contract eta_i with its sign, then multiply by the
                # eta-free df/dy_i: the keys add
                rest = k ^ bit
                s = -c if (k & C.eta & (bit - 1)).bit_count() & 1 else c
                for pk, pc in partial.terms.items():
                    _accumulate(out, C.check(rest + pk), s * pc)
    return Element._from_store(X.m, out)
