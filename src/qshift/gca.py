"""Free graded-commutative algebra Q[y_1..y_m] (x) Lambda[eta_1..eta_m]
modelling the derived critical locus of a polynomial f, with the Koszul
differential given by contraction with df.

Grading is cohomological: deg(y_i) = 0, deg(eta_i) = -1.  An element is
the derivative-free operator, its own multiplication operator: a monomial
y^a eta_S is a packed key of ``coefficients.Codec`` with no derivative
part, and the product is the operator product kernel of ``diffops``, in
which eta_S o eta_U is their merge with its shuffle sign.  The Koszul
differential is the operator K = Sum_i df/dy_i d_eta_i, a derivation, so
it acts on an element a as the bracket [K, a] in that kernel.  At the
boundary a monomial reads as the tuple ``(a, S)``: ``a`` a length-m tuple
of naturals, ``S`` strictly increasing indices in 1..m.
Koszul signs are generated purely by transpositions of odd symbols
relative to this canonical order; every other module inherits that
convention.
"""

from __future__ import annotations

from .coefficients import _accumulate, _same_m, codec
from .diffops import Operator, _product_into, op_commutator
from .errors import NotPolynomial, ZeroPolynomial


class Element(Operator):
    """Sparse sum of monomials y^a * eta_S * hbar^e: an operator whose keys
    carry no derivative, printed as ``(a, S)`` monomials."""

    __slots__ = ()
    _arity = 2

    # -- constructors -------------------------------------------------------
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
        if type(other) is Element:
            return gmul(self, other)
        return super().__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent {n!r} is not a natural number")
        out = Element.one(self.m)
        for _ in range(n):
            out = gmul(out, self)
        return out

    def partial_y(self, i):
        """Formal partial derivative with respect to y_i: even and without
        signs, so one pass over the terms rather than a kernel bracket."""
        C = codec(self.m)
        off, unit = C.y_off[i - 1], C.y[i - 1]
        out = {}
        for k, c in self.terms.items():
            a = k >> off & C.field
            if a:
                _accumulate(out, k - unit, c * a)
        return Element._from_store(self.m, out)


def gmul(a: Element, b: Element) -> Element:
    """Graded-commutative product with Koszul signs: the composite of the
    multiplication operators, by the one product kernel."""
    _same_m(a.m, b)
    out = {}
    _product_into(out, a.terms.items(), b.terms.items(), codec(a.m))
    return Element._from_store(a.m, out)


class CritLocus:
    """f in m variables with its cached partials, modelling Crit(f) derived."""

    __slots__ = ("m", "f", "partials", "names")

    def __init__(self, m, f, partials, names=None):
        self.m = m
        self.f = f
        self.partials = partials
        self.names = names

    def __repr__(self):
        return f"CritLocus(m={self.m}, f={self.f})"


def make_crit_locus(f: Element, m: int, names=None) -> CritLocus:
    """Build the critical-locus data of f, caching its partials; ``names``
    are the declared variables, for messages.  The one place where f is
    checked and differentiated."""
    if m < 1:
        raise ValueError("need at least one variable")
    _same_m(m, f)
    if f.is_zero():
        raise ZeroPolynomial("f = 0")
    if not f.is_polynomial():
        raise NotPolynomial("f must be an hbar-free polynomial in y only")
    partials = [f.partial_y(i) for i in range(1, m + 1)]
    return CritLocus(m, f, partials, names)


def koszul_operator(X: CritLocus) -> Operator:
    """The Koszul differential as the operator Sum_i df/dy_i d_eta_i,
    contraction with df: its one definition."""
    C = codec(X.m)
    return Operator._from_store(X.m, {
        k | bit: c for bit, partial in zip(C.deta_bits, X.partials)
        for k, c in partial.terms.items()})


def apply_koszul_delta(X: CritLocus, a: Element) -> Element:
    """Degree +1 derivation with delta(y_i) = 0, delta(eta_i) = df/dy_i:
    [K, a] for K = ``koszul_operator(X)``, as K o a and (-1)^|a| a o K
    differ by the contractions alone, which the kernel keeps."""
    return Element._from_store(X.m, op_commutator(koszul_operator(X), a).terms)
