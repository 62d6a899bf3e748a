"""Filtered algebra of differential operators on the free algebra, with
normal ordering, symbols, and the Schouten--Nijenhuis bracket on symbols,
taken as the principal symbol of the commutator of lifts.

An operator monomial is the normal-ordered composite

    y^a * eta_S * d_y^b * d_eta_T      (S, T strictly increasing),

with multiplications left of all derivative symbols, stored as a packed key
of ``coefficients.Codec``; at the boundary it reads as the tuple
``(a, S, b, T)``.  Cohomological degrees: d_{y_i} is even (0), d_{eta_i}
odd (+1), so deg = -|S| + |T|.  All products are reduced to this normal
form eagerly.  The product of two monomials has a closed form: the Leibniz
rule for d_y^b o y^c and the Clifford normal ordering of d_eta_T o eta_U,
whose signs come from folding the d_eta generators through eta_U with the
generator rules below, so every Koszul sign is a consequence of
``op_apply(d_eta_i, eta_i) = 1`` and the graded Leibniz rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .coefficients import _accumulate, _shuffle, _Store, codec
from .errors import ArityMismatch, OrderTooLow, ZeroOperator
from .gca import Element

_MY, _META, _DY, _DETA = 0, 1, 2, 3


class Operator(_Store):
    """Sparse normal-ordered differential operator: a store {packed key:
    canonical coefficient}."""

    __slots__ = ()
    _arity = 4

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(m):
        return Operator(m)

    @staticmethod
    def identity(m):
        return Operator._from_store(m, {0: 1})

    @staticmethod
    def mult(a: Element):
        """Multiplication operator of an element: the same keys."""
        return Operator._from_store(a.m, dict(a.terms))

    @staticmethod
    def d_y(m, i):
        return Operator._from_store(m, {codec(m).dy[i - 1]: 1})

    @staticmethod
    def d_eta(m, i):
        return Operator._from_store(m, {codec(m).deta_bits[i - 1]: 1})

    # -- queries ------------------------------------------------------------
    def order_part(self, k):
        C = codec(self.m)
        return self._select(lambda key: C.order(key) == k)

    def hbar_component(self, e):
        """hbar-free Operator collecting the hbar^e coefficient."""
        C = codec(self.m)
        shift = e << C.hbar_shift
        return Operator._from_store(self.m, {k - shift: c for k, c
                                             in self.terms.items()
                                             if k >> C.hbar_shift == e})

    def hbar_exponents(self):
        shift = codec(self.m).hbar_shift
        return {k >> shift for k in self.terms}


# ---------------------------------------------------------------------------
# Generator folding: the four left-composition rules
# ---------------------------------------------------------------------------

def _parity(mask):
    return -1 if mask.bit_count() & 1 else 1


def _gen_sequence(key, C):
    """Generator factors of a monomial key, left to right."""
    a, eta, b, deta, _ = C.decode(key)
    seq = []
    for i in range(C.m):
        seq.extend([(_MY, i + 1)] * a[i])
    seq.extend((_META, i) for i in eta)
    for i in range(C.m):
        seq.extend([(_DY, i + 1)] * b[i])
    seq.extend((_DETA, i) for i in deta)
    return seq


def _compose_gen_key(gen, key, C):
    """Left-compose one generator with a normal-ordered monomial key.

    Yields ``(new_key, integer coefficient)`` pairs.
    """
    kind, i = gen
    if kind == _MY:
        yield C.check(key + C.y[i - 1]), 1
    elif kind == _META:
        bit = C.eta_bits[i - 1]
        if not key & bit:
            yield key | bit, _parity(key & C.eta & (bit - 1))
    elif kind == _DY:
        a = key >> C.y_off[i - 1] & C.field
        if a:
            yield key - C.y[i - 1], a
        yield C.check(key + C.dy[i - 1]), 1
    else:  # _DETA
        bit = C.eta_bits[i - 1]
        if key & bit:
            yield key ^ bit, _parity(key & C.eta & (bit - 1))
        dbit = C.deta_bits[i - 1]
        if not key & dbit:
            # past all of eta_S, then into place among d_eta_T
            yield key | dbit, _parity(key & C.eta) * _parity(
                key & C.deta & (dbit - 1))


def _fold(gens, state, C):
    """Left-compose the generator word ``gens`` with ``state``, a
    {normal-ordered key: integer coefficient} combination, one generator at
    a time from the right."""
    for gen in reversed(gens):
        nxt = {}
        for key, coeff in state.items():
            for nkey, c in _compose_gen_key(gen, key, C):
                _accumulate(nxt, nkey, coeff * c)
        state = nxt
        if not state:
            break
    return state


def _odd_product(left, right):
    """The odd part of eta_S d_eta_T o eta_U d_eta_V in normal order, for
    the odd parts ``left`` (the masks S and T) and ``right`` (U and V) of
    two keys, as ``((odd bits, sign), ...)``: the d_eta generators of T are
    folded through eta_U with the generator rules, then eta_S is merged
    with what is left of eta_U and the remaining d_eta with d_eta_V.  The
    y and d_y fields play no part and the odd bits do not move with m, so
    one entry serves every m."""
    C = codec(max(1, (max(left, right).bit_length() + 1) // 2))
    S, T, U, V = left & C.eta, left & C.deta, right & C.eta, right & C.deta
    out = []
    for k, s in _fold(_gen_sequence(T, C), {U: 1}, C).items():
        u, t = k & C.eta, k & C.deta
        if not (S & u or t & V):
            out.append((S | u | t | V, s * _shuffle(S, u) * _shuffle(t, V)))
    return tuple(out)


# _odd_product(left, right) as _ODD_ROWS[left][right], each entry computed
# when a product first meets it
_ODD_ROWS = {}


def _leibniz(C, kl, kr, shared, base, v):
    """The terms of v y^a d_y^b o y^c d_y^d for the keys ``kl`` and ``kr``
    of a pair whose leading term is v at ``base``, as ``[(key, n)]``: per
    variable i in ``shared`` (the y-field guard bits where b_i and c_i are
    both nonzero), the terms j = 0..min(b_i, c_i), which step the y_i and
    d_y_i fields down together by j, times C(b_i, j) c_i!/(c_i - j)!."""
    field = C.field
    terms = [(base, v)]
    while shared:
        low = shared & -shared
        shared ^= low
        yoff, doff, step = C.shared[low]
        b, c = kl >> doff & field, kr >> yoff & field
        terms = [(k - j * step, n * comb(b, j) * perm(c, j))
                 for k, n in terms for j in range(min(b, c) + 1)]
    return terms


def _product_into(acc, left, right, C, sign=1):
    """Accumulate sign * L o R into the store ``acc``, where ``left`` and
    ``right`` are the flat (key, coefficient) items of two stores, in one
    pass over the pairs of terms.

    For y^a eta_S d_y^b d_eta_T o y^c eta_U d_y^d d_eta_V, d_y^b passes y^c
    by Leibniz and d_eta_T passes eta_U by Clifford ordering; everything
    else commutes, so the only further signs are the merges in
    ``_odd_product``.  The key of the leading term is the sum of the two
    keys' even parts (y and d_y fields and hbar exponents) plus the odd
    bits, and ``_leibniz`` runs only when a variable has d_y in L and y in
    R.  Distinct (j, U') give distinct keys, so the terms of one pair never
    collide.
    """
    odd, guard = C.odd, C.guard
    yb, yl, yg = C.y_block, C.y_lows, C.y_guards
    db, dl, dg, shift = C.dy_block, C.dy_lows, C.dy_guards, C.dy_to_y
    # per term: even part, odd part, and the guard bits of its nonzero y
    # fields (a field x < limit is nonzero iff x + limit - 1 sets its guard)
    rterms = [(kr & ~odd, kr & odd, ((kr & yb) + yl) & yg, kr, cr)
              for kr, cr in right]
    rows = _ODD_ROWS
    for kl, cl in left:
        el, ol = kl & ~odd, kl & odd
        dys = (((kl & db) + dl) & dg) >> shift  # nonzero d_y, at y's place
        if sign != 1:
            cl = -cl
        row = rows.get(ol)
        if row is None:
            row = rows[ol] = {}
        for er, orr, ysr, kr, cr in rterms:
            odds = row.get(orr)
            if odds is None:
                odds = row[orr] = _odd_product(ol, orr)
            if not odds:
                continue
            base = el + er
            if base & guard:
                C.overflow()
            v = cl * cr
            if dys & ysr:
                for k, n in _leibniz(C, kl, kr, dys & ysr, base, v):
                    for bits, s in odds:
                        _accumulate(acc, k + bits, n if s == 1 else -n)
                continue
            for bits, s in odds:
                # _accumulate, inlined
                k = base + bits
                w = acc.get(k, 0) + (v if s == 1 else -v)
                if not w:
                    del acc[k]
                elif type(w) is Fraction and w.denominator == 1:
                    acc[k] = w.numerator
                else:
                    acc[k] = w


def op_compose(D1: Operator, D2: Operator) -> Operator:
    """Normal-ordered product D1 o D2, in one pass over pairs of terms."""
    if D1.m != D2.m:
        raise ValueError("signature mismatch")
    acc = {}
    _product_into(acc, D1.terms.items(), D2.terms.items(), codec(D1.m))
    return Operator._from_store(D1.m, acc)


def op_apply(D: Operator, a: Element) -> Element:
    """Evaluate the operator on an element, one generator at a time: the
    reference that the closed-form product is checked against."""
    if D.m != a.m:
        raise ValueError("signature mismatch")
    C = codec(D.m)
    out = {}
    for key, c in D.terms.items():
        state = a.terms
        for kind, i in reversed(_gen_sequence(key, C)):
            bit, nxt = C.eta_bits[i - 1], {}
            for k, ce in state.items():
                if kind == _MY:
                    _accumulate(nxt, C.check(k + C.y[i - 1]), ce)
                elif kind == _DY:
                    n = k >> C.y_off[i - 1] & C.field
                    if n:
                        _accumulate(nxt, k - C.y[i - 1], n * ce)
                elif (kind == _META) != bool(k & bit):
                    # eta_i into place, or d_eta_i contracting it
                    odd = (k & C.eta & (bit - 1)).bit_count() & 1
                    _accumulate(nxt, k ^ bit, -ce if odd else ce)
            state = nxt
            if not state:
                break
        hbar = key - (key & C.mono)
        for k, ce in state.items():
            _accumulate(out, k + hbar, c * ce)
    return Element._from_store(D.m, out)


def op_commutator(D1: Operator, D2: Operator) -> Operator:
    """Graded commutator [D1, D2], extended bilinearly over monomials:
    k1 o k2 - (-1)^(|k1||k2|) k2 o k1 for each pair, added to one store;
    the sign of k2 o k1 is +1 only for two odd monomials."""
    if D1.m != D2.m:
        raise ValueError("signature mismatch")
    C = codec(D1.m)
    left, right = list(D1.terms.items()), list(D2.terms.items())
    odd_l = [t for t in left if C.degree(t[0]) & 1]
    even_l = [t for t in left if not C.degree(t[0]) & 1]
    odd_r = [t for t in right if C.degree(t[0]) & 1]
    even_r = [t for t in right if not C.degree(t[0]) & 1]
    acc = {}
    _product_into(acc, left, right, C)
    _product_into(acc, even_r, left, C, -1)
    _product_into(acc, odd_r, even_l, C, -1)
    _product_into(acc, odd_r, odd_l, C)
    return Operator._from_store(D1.m, acc)


def op_order(D: Operator) -> int:
    """Maximal total derivative degree; equals the inductive filtration level."""
    if D.is_zero():
        raise ZeroOperator("order of the zero operator is undefined")
    C = codec(D.m)
    return max(C.order(k) for k in D.terms)


# ---------------------------------------------------------------------------
# Polyvectors (principal symbols) and the Schouten--Nijenhuis bracket
# ---------------------------------------------------------------------------

class Polyvector(_Store):
    """Homogeneous arity-p symbol: derivative symbols commute freely.  The
    store and the constructor input are those of :class:`Operator`."""

    __slots__ = ("arity",)
    _arity = 4

    def __init__(self, m, arity, terms=None):
        super().__init__(m, terms)
        self.arity = int(arity)
        C = codec(self.m)
        for key in self.terms:
            if C.order(key) != self.arity:
                raise ArityMismatch(
                    f"monomial of arity {C.order(key)} in arity-{self.arity} polyvector")

    @classmethod
    def _from_store(cls, m, arity, store):
        """Wrap a canonical, zero-free store whose keys all have the arity."""
        P = super()._from_store(m, store)
        P.arity = arity
        return P

    def _like(self, store):
        return self._from_store(self.m, self.arity, store)

    @staticmethod
    def zero(m, arity=0):
        return Polyvector(m, arity)

    def __eq__(self, other):
        """The zero symbol equals a zero of any arity."""
        if not isinstance(other, Polyvector):
            return NotImplemented
        return (self.m == other.m and self.terms == other.terms
                and (self.arity == other.arity or not self.terms or not other.terms))

    def __add__(self, other):
        if self.arity != other.arity and self.terms and other.terms:
            raise ArityMismatch("cannot add polyvectors of different arity")
        out = super().__add__(other)
        if other.terms and not self.terms:
            out.arity = other.arity
        return out

    def lift(self) -> Operator:
        """Read the symbol as a normal-ordered operator (same keys)."""
        return Operator._from_store(self.m, dict(self.terms))

    def __repr__(self):
        return f"Polyvector(arity={self.arity}, {self.lift()})"

    __str__ = __repr__


def symbol(D: Operator, k: int) -> Polyvector:
    """Degree-k part of the operator read as a polyvector."""
    if not D.is_zero() and op_order(D) > k:
        raise OrderTooLow(f"operator has order {op_order(D)} > {k}")
    return Polyvector._from_store(D.m, k, D.order_part(k).terms)


def pv_mul(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Free graded-commutative product of symbols, arity adding: the top
    order p + q part of the composite of the lifts, where no derivative of
    P reaches Q."""
    arity = P.arity + Q.arity
    product = op_compose(P.lift(), Q.lift()).order_part(arity)
    return Polyvector._from_store(P.m, arity, product.terms)


def schouten(P1: Polyvector, P2: Polyvector) -> Polyvector:
    """Schouten--Nijenhuis bracket: the arity-(p + q - 1) part of the
    graded commutator of the lifts, whose top order p + q cancels, so it is
    the principal symbol of [P1, P2]."""
    arity = P1.arity + P2.arity - 1
    bracket = op_commutator(P1.lift(), P2.lift()).order_part(arity)
    return Polyvector._from_store(P1.m, max(arity, 0), bracket.terms)
