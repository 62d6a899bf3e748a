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
d_eta rule (``_odd_product``), so every Koszul sign is a consequence of
d_eta_i eta_i + eta_i d_eta_i = 1 and the graded Leibniz rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .coefficients import FIELD_BITS, _same_m, _shuffle, _Store, codec
from .errors import ArityMismatch, OrderTooLow, ZeroOperator


class Operator(_Store):
    """Sparse normal-ordered differential operator: a store {packed key:
    canonical coefficient}."""

    __slots__ = ()
    _arity = 4

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, m):
        return cls(m)

    @staticmethod
    def identity(m):
        return Operator._from_store(m, {0: 1})

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

    def hbar_exponents(self):
        shift = codec(self.m).hbar_shift
        return {k >> shift for k in self.terms}

    # -- arithmetic ----------------------------------------------------------
    def __mul__(self, other):
        """A scalar multiple, or the composite self o other."""
        if isinstance(other, Operator):
            return op_compose(self, other)
        return super().__mul__(other)


def _odd_product(left, right):
    """The odd part of eta_S d_eta_T o eta_U d_eta_V in normal order, for
    the odd parts ``left`` (the masks S and T) and ``right`` (U and V) of
    two keys, as ``((odd bits, sign), ...)``: the d_eta generators of T are
    folded through eta_U one at a time from the right, then eta_S is merged
    with what is left of eta_U and the remaining d_eta with d_eta_V.  The
    y and d_y fields play no part and the odd bits do not move with m, so
    one entry serves every m.

    The fold needs only the d_eta rule: d_eta_i o eta_S' d_eta_T' is the
    contraction of eta_i, signed by the eta below it, plus d_eta_i moved
    past all of eta_S' into place; taken from the highest index down, every
    d_eta already placed lies above it.  The tests check it against the
    fold with the rules of all four generators."""
    C = codec(max(1, (max(left, right).bit_length() + 1) // 2))
    S, T, U, V = left & C.eta, left & C.deta, right & C.eta, right & C.deta
    state = {U: 1}
    for dbit in reversed(C.deta_bits):
        if T & dbit:
            bit, nxt = dbit >> 1, {}
            for k, s in state.items():
                if k & bit:
                    n = (k & C.eta & (bit - 1)).bit_count()
                    nxt[k ^ bit] = -s if n & 1 else s
                nxt[k | dbit] = -s if (k & C.eta).bit_count() & 1 else s
            state = nxt
    out = []
    for k, s in state.items():
        u, t = k & C.eta, k & C.deta
        if not (S & u or t & V):
            out.append((S | u | t | V, s * _shuffle(S, u) * _shuffle(t, V)))
    return tuple(out)


def _leibniz_steps(C, fields):
    """The terms of d_y^b o y^c, for ``fields`` the d_y fields b of L's key
    and the y fields c of R's, as ``((key step, multiplier), ...)``: per
    variable i, j = 0..min(b_i, c_i) steps the y_i and d_y_i fields down
    together by j, times C(b_i, j) c_i!/(c_i - j)!."""
    steps = [(0, 1)]
    for yoff, doff, unit in C.shared.values():
        b, c = fields >> doff & C.field, fields >> yoff & C.field
        steps = [(k + j * unit, n * comb(b, j) * perm(c, j))
                 for k, n in steps for j in range(min(b, c) + 1)]
    return tuple(steps)


def _pair_terms(C, ol, key, bracket):
    """The terms of a pair of monomials as ``((offset, multiplier), ...)``,
    offsets from the sum of their even parts, for L's odd part ``ol`` and
    a ``key`` holding R's odd part, the d_y fields of L and y fields of R
    where they meet and, from ``hbar_shift`` up, R's d_y and L's y fields
    where those meet.  L o R pairs every Leibniz step with every term of
    ``_odd_product``; the bracket merges in -(-1)^(|L||R|) R o L, whose
    leading term cancels that of L o R (see ``op_commutator``)."""
    orr = key & C.odd
    terms = {bits - step: n * s
             for step, n in _leibniz_steps(C, key & C.mono & ~C.odd)
             for bits, s in _odd_product(ol, orr)}
    if bracket:
        sign = 1 if ol.bit_count() * orr.bit_count() & 1 else -1
        for step, n in _leibniz_steps(C, key >> C.hbar_shift):
            for bits, s in _odd_product(orr, ol):
                terms[bits - step] = terms.get(bits - step, 0) + sign * n * s
    out = tuple(_TERMS.setdefault(t, t) for t in terms.items() if t[1])
    return _TERMS.setdefault(out, out)


# _pair_terms(C, ol, key, bracket) as _PAIR_ROWS[m, bracket][ol][key], each
# entry computed when a product first meets it; the fields move with m.
# _TERMS keeps one copy of each entry and of each (offset, multiplier) term.
_PAIR_ROWS, _TERMS = {}, {}


def _product_into(acc, left, right, C, bracket=False):
    """Accumulate L o R, or with ``bracket`` the graded commutator [L, R],
    into the store ``acc``, where ``left`` and ``right`` are the flat (key,
    coefficient) items of two stores, in one pass over the pairs of terms.

    For y^a eta_S d_y^b d_eta_T o y^c eta_U d_y^d d_eta_V, d_y^b passes y^c
    by Leibniz and d_eta_T passes eta_U by Clifford ordering; everything
    else commutes, so the only further signs are the merges in
    ``_odd_product``.  Every term's key is the sum of the two keys' even
    parts (y and d_y fields and hbar exponents) plus an offset from
    ``_PAIR_ROWS``, read by the odd parts and, found by a mask test, the
    fields of the variables with d_y on one side and y on the other (from L
    to R only, unless ``bracket``).  A pair whose entry is empty is skipped
    before its keys are added, so it never overflows.
    """
    odd, guard, top, hs = C.odd, C.guard, FIELD_BITS - 1, C.hbar_shift
    yb, yl, yg = C.y_block, C.y_lows, C.y_guards
    db, dl, dg, shift = C.dy_block, C.dy_lows, C.dy_guards, C.dy_to_y
    # per term: even part, odd part, and the guard bits (at y's place) of its
    # nonzero y and d_y fields; x < limit is nonzero iff x + limit - 1 sets
    # the guard, and a field's mask is (guard << 1) - (guard >> top)
    rterms = [(kr & ~odd, kr & odd, ((kr & yb) + yl) & yg,
               (((kr & db) + dl) & dg) >> shift, kr, cr) for kr, cr in right]
    rows = _PAIR_ROWS.setdefault((C.m, bracket), {})
    for kl, cl in left:
        el, ol = kl & ~odd, kl & odd
        dys = (((kl & db) + dl) & dg) >> shift
        ys = ((kl & yb) + yl) & yg if bracket else 0
        row = rows.get(ol) or rows.setdefault(ol, {})
        for er, orr, ysr, dysr, kr, cr in rterms:
            key, fwd, back = orr, dys & ysr, dysr & ys
            if fwd:
                fwd = (fwd << 1) - (fwd >> top)
                key |= kl & fwd << shift | kr & fwd
            if back:
                back = (back << 1) - (back >> top)
                key |= (kr & back << shift | kl & back) << hs
            terms = row.get(key)
            if terms is None:
                terms = row[key] = _pair_terms(C, ol, key, bracket)
            if not terms:
                continue
            base = el + er
            if base & guard:
                C.overflow()
            v = cl * cr
            for off, n in terms:
                # _accumulate, inlined
                k = base + off
                w = acc.get(k, 0) + v * n
                if not w:
                    del acc[k]
                elif type(w) is Fraction and w.denominator == 1:
                    acc[k] = w.numerator
                else:
                    acc[k] = w


def op_compose(D1: Operator, D2: Operator) -> Operator:
    """Normal-ordered product D1 o D2, in one pass over pairs of terms."""
    _same_m(D1.m, D2)
    acc = {}
    _product_into(acc, D1.terms.items(), D2.terms.items(), codec(D1.m))
    return Operator._from_store(D1.m, acc)


def op_commutator(D1: Operator, D2: Operator) -> Operator:
    """Graded commutator [D1, D2], the sum over pairs of monomials of
    k1 o k2 - (-1)^(|k1||k2|) k2 o k1, in one pass over the pairs.  The
    leading terms of the two products (no Leibniz step, no Clifford
    contraction) agree up to that sign, as the associated graded of the
    order filtration is supercommutative, and both are zero when S and U
    or T and V meet.  So they cancel in the pair's merged table entry
    (``_pair_terms``), which keeps only the steps j >= 1 and the
    contractions of both directions; a pair with no d_y against a y and no
    d_eta against an eta, either way, has an empty entry and is skipped."""
    _same_m(D1.m, D2)
    acc = {}
    _product_into(acc, D1.terms.items(), D2.terms.items(), codec(D1.m),
                  bracket=True)
    return Operator._from_store(D1.m, acc)


def _banded_images(m, keys, apply, *factors):
    """The images of the hbar-free monomials ``keys`` under a linear map
    ``apply`` of operators, in one call, one store per key.  The map adds
    one hbar exponent from each of ``factors`` (iterables of keys), and hbar
    is central of degree 0, so key i goes in at hbar^(K i), K the span of
    those sums (Kronecker substitution), and is read back from its band."""
    shift = codec(m).hbar_shift
    exps = [[k >> shift for k in factor] for factor in factors]
    lo = sum(map(min, exps))
    K = sum(map(max, exps)) - lo + 1
    images = [{} for _ in keys]
    banded = {key + (K * i << shift): 1 for i, key in enumerate(keys)}
    for k, c in apply(Operator._from_store(m, banded)).terms.items():
        i = ((k >> shift) - lo) // K
        images[i][k - (K * i << shift)] = c
    return images


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
    store and the constructor input are those of :class:`Operator`; the
    arity is read off the keys, 0 for a zero."""

    __slots__ = ()
    _arity = 4

    def __init__(self, m, arity, terms=None):
        super().__init__(m, terms)
        C = codec(self.m)
        for key in self.terms:
            if C.order(key) != arity:
                raise ArityMismatch(
                    f"monomial of arity {C.order(key)} in arity-{arity} polyvector")

    @property
    def arity(self):
        return codec(self.m).order(next(iter(self.terms))) if self.terms else 0

    @staticmethod
    def zero(m):
        return Polyvector(m, 0)

    def __add__(self, other):
        other = self._coerce(other)
        if self.terms and other.terms and self.arity != other.arity:
            raise ArityMismatch("cannot add polyvectors of different arity")
        return super().__add__(other)

    __radd__ = __add__

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
    return Polyvector._from_store(D.m, D.order_part(k).terms)


def schouten(P1: Polyvector, P2: Polyvector) -> Polyvector:
    """Schouten--Nijenhuis bracket: the arity-(p + q - 1) part of the
    graded commutator of the lifts, whose top order p + q cancels, so it is
    the principal symbol of [P1, P2]."""
    bracket = op_commutator(P1.lift(), P2.lift())
    return Polyvector._from_store(
        P1.m, bracket.order_part(P1.arity + P2.arity - 1).terms)
