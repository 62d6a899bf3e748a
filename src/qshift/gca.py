"""Free graded-commutative algebra Q[y_1..y_m] (x) Lambda[eta_1..eta_m]
modelling the derived critical locus of a polynomial f, with the Koszul
differential given by contraction with df.

Grading is cohomological: deg(y_i) = 0, deg(eta_i) = -1.  A monomial is the
key ``(y_exps, eta)`` with ``y_exps`` a length-m tuple of naturals and
``eta`` a strictly increasing tuple of indices in 1..m.  Koszul signs are
generated purely by transpositions of odd symbols relative to this canonical
order; every other module inherits that convention.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .coefficients import (HSeries, _accumulate, _add_terms, _hbar_items,
                           _Store, solve_rational)
from .errors import NotPolynomial, ZeroPolynomial


def merge_ascending(a, b):
    """Merge two strictly increasing index tuples of odd symbols.

    Returns ``(merged, sign)`` with the Koszul sign of the interleave, or
    ``(None, 0)`` when an index repeats (odd square = 0).
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    i = j = 0
    inversions = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            inversions += len(a) - i
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1 if inversions % 2 else 1)


def insert_index(idx, s):
    """Insert one odd index into an increasing tuple; (None, 0) on repeat."""
    if idx in s:
        return None, 0
    pos = sum(1 for x in s if x < idx)
    return tuple(sorted(s + (idx,))), (-1 if pos % 2 else 1)


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
    """Sparse sum of monomials y^a * eta_S * hbar^e: a store
    {((a, S), e): canonical coefficient}."""

    __slots__ = ()

    def _unit(self):
        return unit_key(self.m)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(m):
        return Element(m)

    @staticmethod
    def one(m):
        return Element(m, {unit_key(m): 1})

    @staticmethod
    def const(m, c):
        return Element(m, {unit_key(m): c})

    @staticmethod
    def y(m, i, power=1):
        e = [0] * m
        e[i - 1] = power
        return Element(m, {(tuple(e), ()): 1})

    @staticmethod
    def eta(m, i):
        return Element(m, {((0,) * m, (i,)): 1})

    # -- queries ------------------------------------------------------------
    def is_polynomial(self):
        """No eta factors and hbar-free coefficients."""
        return not any(eta or e for (_, eta), e in self.terms)

    def degrees(self):
        return {-len(eta) for (_, eta), _ in self.terms}

    def degree_part(self, d):
        return self._select(lambda key: -len(key[1]) == d)

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
        out = {}
        for ((a, eta), e), c in self.terms.items():
            if a[i - 1]:
                na = list(a)
                na[i - 1] -= 1
                _accumulate(out, ((tuple(na), eta), e), c * a[i - 1])
        return Element._from_store(self.m, out)

    def contract_eta(self, i):
        """Odd left derivation d/d(eta_i): kills monomials without eta_i."""
        out = {}
        for ((a, eta), e), c in self.terms.items():
            key, sign = _contract_eta_key(eta, i)
            if key is not None:
                out[((a, key), e)] = c if sign > 0 else -c
        return Element._from_store(self.m, out)

    def __repr__(self):
        return f"Element({self})"

    def __str__(self):
        return format_terms(self.series(), self.m)


def unit_key(m):
    return ((0,) * m, ())


def _contract_eta_key(eta, i):
    if i not in eta:
        return None, 0
    pos = eta.index(i)
    return eta[:pos] + eta[pos + 1:], (-1 if pos % 2 else 1)


def gmul(a: Element, b: Element) -> Element:
    """Graded-commutative product with Koszul signs, accumulated straight
    into the result; each pair of monomials is merged once."""
    if a.m != b.m:
        raise ValueError("signature mismatch")
    out = {}
    right = _hbar_items(b.terms)
    for (ya, ea), ha in _hbar_items(a.terms):
        for (yb, eb), hb in right:
            eta, sign = merge_ascending(ea, eb)
            if eta is None:
                continue
            _add_terms(out, (tuple(map(add, ya, yb)), eta), ha, hb, sign)
    return Element._from_store(a.m, out)


def format_monomial(key, m, names=None):
    a, eta = key
    parts = []
    for i in range(m):
        if a[i]:
            name = names[i] if names else f"y{i + 1}"
            parts.append(name if a[i] == 1 else f"{name}^{a[i]}")
    for i in eta:
        name = f"eta_{names[i - 1]}" if names else f"eta{i}"
        parts.append(name)
    return "*".join(parts) if parts else "1"


def format_terms(terms, m, names=None):
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        c = terms[key]
        mono = format_monomial(key, m, names)
        cs = str(c)
        if cs == "1":
            parts.append(mono)
        elif mono == "1":
            parts.append(cs)
        elif "+" in cs or (cs.startswith("-") and "*" in cs):
            parts.append(f"({cs})*{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts)


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
    rows = [{i: e for i, e in enumerate(a) if e} for (a, _), _ in f.terms]
    sol = solve_rational(rows, dict.fromkeys(range(len(rows)), 1), m)
    if sol is None:
        return None
    used = {i for row in rows for i in row}
    weights = [sol[i] if i in used else 1 for i in range(m)]
    if any(w <= 0 for w in weights):
        return None
    for (a, _), _ in f.terms:
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
    out = {}
    for i in range(1, X.m + 1):
        contracted = a.contract_eta(i)
        if contracted:
            for k, c in gmul(X.partials[i - 1], contracted).terms.items():
                _accumulate(out, k, c)
    return Element._from_store(X.m, out)
