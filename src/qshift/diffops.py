"""Filtered algebra of differential operators on the free algebra, with
normal ordering, symbols, and the Schouten--Nijenhuis bracket on symbols.

An operator monomial is the key ``(y_exps, eta, dy_exps, deta)`` denoting the
normal-ordered composite

    y^a * eta_S * d_y^b * d_eta_T      (S, T strictly increasing),

with multiplications left of all derivative symbols.  Cohomological degrees:
d_{y_i} is even (0), d_{eta_i} odd (+1), so deg = -|S| + |T|.  All products
are reduced to this normal form eagerly.  The product of two monomials has a
closed form: the Leibniz rule for d_y^b o y^c and the Clifford normal
ordering of d_eta_T o eta_U, whose signs come from folding the d_eta
generators through eta_U with the generator rules below, so every Koszul
sign is a consequence of ``op_apply(d_eta_i, eta_i) = 1`` and the graded
Leibniz rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from operator import add

from .coefficients import (_accumulate, _add_terms, _flatten, _hbar_items,
                           _scaled, _Store)
from .errors import ArityMismatch, OrderTooLow, ZeroOperator
from .gca import Element, insert_index, merge_ascending

_MY, _META, _DY, _DETA = 0, 1, 2, 3


def op_unit_key(m):
    return ((0,) * m, (), (0,) * m, ())


def key_order(key):
    """Total derivative degree of a monomial key."""
    return sum(key[2]) + len(key[3])


def key_degree(key):
    """Cohomological degree: -|eta| + |d_eta|."""
    return -len(key[1]) + len(key[3])


class Operator(_Store):
    """Sparse normal-ordered differential operator: a store
    {(key, hbar exponent): canonical coefficient}."""

    __slots__ = ()

    def _unit(self):
        return op_unit_key(self.m)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(m):
        return Operator(m)

    @staticmethod
    def identity(m):
        return Operator(m, {op_unit_key(m): 1})

    @staticmethod
    def mult(a: Element):
        """Multiplication operator of an element."""
        zero = (0,) * a.m
        return Operator._from_store(a.m, {((ya, ea, zero, ()), e): c
                                          for ((ya, ea), e), c in a.terms.items()})

    @staticmethod
    def d_y(m, i):
        e = [0] * m
        e[i - 1] = 1
        return Operator(m, {((0,) * m, (), tuple(e), ()): 1})

    @staticmethod
    def d_eta(m, i):
        return Operator(m, {((0,) * m, (), (0,) * m, (i,)): 1})

    # -- queries ------------------------------------------------------------
    def degrees(self):
        return {key_degree(k) for k, _ in self.terms}

    def degree_part(self, d):
        return self._select(lambda key: key_degree(key) == d)

    def order_part(self, k):
        return self._select(lambda key: key_order(key) == k)

    def hbar_component(self, e):
        """hbar-free Operator collecting the hbar^e coefficient."""
        return Operator._from_store(self.m, {(key, 0): c for (key, f), c
                                             in self.terms.items() if f == e})

    def hbar_exponents(self):
        return {e for _, e in self.terms}

    def __repr__(self):
        return f"Operator({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        view = self.series()
        for key in sorted(view):
            mono = format_op_monomial(key, self.m)
            cs = str(view[key])
            if cs == "1":
                parts.append(mono)
            elif mono == "1":
                parts.append(cs)
            elif "+" in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


def format_op_monomial(key, m, names=None):
    a, eta, b, deta = key
    parts = []
    from .gca import format_monomial
    left = format_monomial((a, eta), m, names)
    if left != "1":
        parts.append(left)
    for i in range(m):
        if b[i]:
            name = f"D{names[i]}" if names else f"Dy{i + 1}"
            parts.append(name if b[i] == 1 else f"{name}^{b[i]}")
    for i in deta:
        name = f"Deta_{names[i - 1]}" if names else f"Deta{i}"
        parts.append(name)
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Generator folding: the four left-composition rules
# ---------------------------------------------------------------------------

def _gen_sequence(key, m):
    """Generator factors of a monomial key, left to right."""
    a, eta, b, deta = key
    seq = []
    for i in range(m):
        seq.extend([(_MY, i + 1)] * a[i])
    seq.extend((_META, i) for i in eta)
    for i in range(m):
        seq.extend([(_DY, i + 1)] * b[i])
    seq.extend((_DETA, i) for i in deta)
    return seq


def _compose_gen_key(gen, key, m):
    """Left-compose one generator with a normal-ordered monomial key.

    Yields ``(new_key, integer coefficient)`` pairs.
    """
    kind, i = gen
    a, eta, b, deta = key
    if kind == _MY:
        na = list(a)
        na[i - 1] += 1
        yield (tuple(na), eta, b, deta), 1
    elif kind == _META:
        ne, sign = insert_index(i, eta)
        if ne is not None:
            yield (a, ne, b, deta), sign
    elif kind == _DY:
        if a[i - 1]:
            na = list(a)
            na[i - 1] -= 1
            yield (tuple(na), eta, b, deta), a[i - 1]
        nb = list(b)
        nb[i - 1] += 1
        yield (a, eta, tuple(nb), deta), 1
    else:  # _DETA
        pos = None
        if i in eta:
            pos = eta.index(i)
            ne = eta[:pos] + eta[pos + 1:]
            yield (a, ne, b, deta), (-1 if pos % 2 else 1)
        nd, sign = insert_index(i, deta)
        if nd is not None:
            pass_sign = -1 if len(eta) % 2 else 1
            yield (a, eta, b, nd), pass_sign * sign
        return


def _fold(gens, state, m):
    """Left-compose the generator word ``gens`` with ``state``, a
    {normal-ordered key: integer coefficient} combination, one generator at
    a time from the right."""
    for gen in reversed(gens):
        nxt = {}
        for key, coeff in state.items():
            for nkey, c in _compose_gen_key(gen, key, m):
                _accumulate(nxt, nkey, coeff * c)
        state = nxt
        if not state:
            break
    return state


@lru_cache(maxsize=None)
def _odd_product(S, T, U, V):
    """The odd part of eta_S d_eta_T o eta_U d_eta_V in normal order, as
    ``((eta, d_eta, sign), ...)``: the d_eta generators are folded through
    eta_U with the generator rules, then eta_S.eta_U' and d_eta_T'.d_eta_V
    are merged.  The y and d_y slots play no part, so one entry serves
    every m."""
    out = []
    for k, s in _fold([(_DETA, t) for t in T], {((), U, (), ()): 1}, 0).items():
        eta, s1 = merge_ascending(S, k[1])
        deta, s2 = merge_ascending(k[3], V)
        if eta is not None and deta is not None:
            out.append((eta, deta, s * s1 * s2))
    return tuple(out)


def _leibniz(a, b, c, d):
    """Normal-ordered y^a d_y^b o y^c d_y^d as ``[(y exps, d_y exps, n)]``:
    the sum over k of prod_i C(b_i, k_i) c_i!/(c_i - k_i)!
    y^(a+c-k) d_y^(b-k+d)."""
    terms = [((), (), 1)]
    for ai, bi, ci, di in zip(a, b, c, d):
        terms = [(y + (ai + ci - k,), dy + (bi + di - k,),
                  n * comb(bi, k) * perm(ci, k))
                 for y, dy, n in terms for k in range(min(bi, ci) + 1)]
    return terms


def _product_into(acc, left, right, sign=1):
    """Accumulate sign * L o R into the store ``acc``, where ``left`` and
    ``right`` are operands grouped by monomial (``_hbar_items``), in one
    pass over monomial pairs.

    For y^a eta_S d_y^b d_eta_T o y^c eta_U d_y^d d_eta_V, d_y^b passes y^c
    by Leibniz and d_eta_T passes eta_U by Clifford ordering; everything
    else commutes, so the only further signs are the merges in
    ``_odd_product``.  Distinct (k, U') give distinct keys, so the terms of
    one pair never collide.
    """
    if sign != 1:
        left = [(k, [(e, v * sign) for e, v in h]) for k, h in left]
    for (a, S, b, T), h1 in left:
        for (c, U, d, V), h2 in right:
            odd = _odd_product(S, T, U, V)
            if not odd:
                continue
            if any(map(min, b, c)):
                even = _leibniz(a, b, c, d)
            else:
                even = ((tuple(map(add, a, c)), tuple(map(add, b, d)), 1),)
            for y, dy, n in even:
                for eta, deta, s in odd:
                    key = (y, eta, dy, deta)
                    ns = n * s
                    for e1, v1 in h1:
                        if ns != 1:
                            v1 *= ns
                        for e2, v2 in h2:
                            # the add-and-drop-zero step of _accumulate
                            k = (key, e1 + e2)
                            v = acc.get(k, 0) + v1 * v2
                            if not v:
                                acc.pop(k, None)
                            elif type(v) is Fraction and v.denominator == 1:
                                acc[k] = v.numerator
                            else:
                                acc[k] = v


def op_compose(D1: Operator, D2: Operator) -> Operator:
    """Normal-ordered product D1 o D2, in one pass over monomial pairs."""
    if D1.m != D2.m:
        raise ValueError("signature mismatch")
    acc = {}
    _product_into(acc, _hbar_items(D1.terms), _hbar_items(D2.terms))
    return Operator._from_store(D1.m, acc)


def op_apply(D: Operator, a: Element) -> Element:
    """Evaluate the operator on an element, one generator at a time: the
    reference that the closed-form product is checked against."""
    if D.m != a.m:
        raise ValueError("signature mismatch")
    m = D.m
    out = {}
    for key, h in _hbar_items(D.terms):
        state = a.terms
        for kind, i in reversed(_gen_sequence(key, m)):
            nxt = {}
            for ((ya, ea), e), ce in state.items():
                if kind == _MY:
                    na = list(ya)
                    na[i - 1] += 1
                    _accumulate(nxt, ((tuple(na), ea), e), ce)
                elif kind == _META:
                    ne, sign = insert_index(i, ea)
                    if ne is not None:
                        _accumulate(nxt, ((ya, ne), e), sign * ce)
                elif kind == _DY:
                    if ya[i - 1]:
                        na = list(ya)
                        na[i - 1] -= 1
                        _accumulate(nxt, ((tuple(na), ea), e), ya[i - 1] * ce)
                elif i in ea:  # _DETA
                    pos = ea.index(i)
                    ne = ea[:pos] + ea[pos + 1:]
                    _accumulate(nxt, ((ya, ne), e), -ce if pos % 2 else ce)
            state = nxt
            if not state:
                break
        for (k, e2), ce in state.items():
            for e1, c in h:
                _accumulate(out, (k, e1 + e2), c * ce)
    return Element._from_store(m, out)


def op_commutator(D1: Operator, D2: Operator) -> Operator:
    """Graded commutator [D1, D2], extended bilinearly over monomials:
    k1 o k2 - (-1)^(|k1||k2|) k2 o k1 for each pair, added to one store;
    the sign of k2 o k1 is +1 only for two odd monomials."""
    if D1.m != D2.m:
        raise ValueError("signature mismatch")
    left, right = _hbar_items(D1.terms), _hbar_items(D2.terms)
    odd_l = [t for t in left if key_degree(t[0]) % 2]
    even_l = [t for t in left if not key_degree(t[0]) % 2]
    odd_r = [t for t in right if key_degree(t[0]) % 2]
    even_r = [t for t in right if not key_degree(t[0]) % 2]
    acc = {}
    _product_into(acc, left, right)
    _product_into(acc, even_r, left, -1)
    _product_into(acc, odd_r, even_l, -1)
    _product_into(acc, odd_r, odd_l)
    return Operator._from_store(D1.m, acc)


def op_order(D: Operator) -> int:
    """Maximal total derivative degree; equals the inductive filtration level."""
    if D.is_zero():
        raise ZeroOperator("order of the zero operator is undefined")
    return max(key_order(k) for k, _ in D.terms)


# ---------------------------------------------------------------------------
# Polyvectors (principal symbols) and the Schouten--Nijenhuis bracket
# ---------------------------------------------------------------------------

class Polyvector:
    """Homogeneous arity-p symbol: derivative symbols commute freely.  The
    store and the constructor input are those of :class:`Operator`."""

    __slots__ = ("m", "arity", "terms")

    def __init__(self, m, arity, terms=None):
        self.m = int(m)
        self.arity = int(arity)
        self.terms = _flatten(terms) if terms else {}
        for key, _ in self.terms:
            if key_order(key) != self.arity:
                raise ArityMismatch(
                    f"monomial of arity {key_order(key)} in arity-{self.arity} polyvector")

    @classmethod
    def _from_store(cls, m, arity, store):
        """Wrap a canonical, zero-free store whose keys all have the arity."""
        P = cls.__new__(cls)
        P.m = m
        P.arity = arity
        P.terms = store
        return P

    @staticmethod
    def zero(m, arity=0):
        return Polyvector(m, arity)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polyvector):
            return NotImplemented
        return (self.m == other.m and self.terms == other.terms
                and (self.arity == other.arity or not self.terms or not other.terms))

    def __add__(self, other):
        if self.arity != other.arity and self.terms and other.terms:
            raise ArityMismatch("cannot add polyvectors of different arity")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return Polyvector._from_store(self.m, max(self.arity, other.arity), out)

    def __neg__(self):
        return Polyvector._from_store(self.m, self.arity,
                                      {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Polyvector._from_store(self.m, self.arity, _scaled(self.terms, c))

    def lift(self) -> Operator:
        """Read the symbol as a normal-ordered operator (same keys)."""
        return Operator._from_store(self.m, dict(self.terms))

    def __repr__(self):
        return f"Polyvector(arity={self.arity}, {self.lift()})"


def symbol(D: Operator, k: int) -> Polyvector:
    """Degree-k part of the operator read as a polyvector."""
    if not D.is_zero() and op_order(D) > k:
        raise OrderTooLow(f"operator has order {op_order(D)} > {k}")
    return Polyvector._from_store(D.m, k, D.order_part(k).terms)


def pv_mul(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Free graded-commutative product of symbols; arity adds."""
    if P.m != Q.m:
        raise ValueError("signature mismatch")
    out = {}
    right = _hbar_items(Q.terms)
    for k1, h1 in _hbar_items(P.terms):
        for k2, h2 in right:
            key, sign = _merge_symbol_keys(k1, k2)
            if key is not None:
                _add_terms(out, key, h1, h2, sign)
    return Polyvector._from_store(P.m, P.arity + Q.arity, out)


def _merge_symbol_keys(k1, k2):
    a1, e1, b1, t1 = k1
    a2, e2, b2, t2 = k2
    eta, s1 = merge_ascending(e1, e2)
    if eta is None:
        return None, 0
    deta, s2 = merge_ascending(t1, t2)
    if deta is None:
        return None, 0
    # moving the d_eta block of k1 past the eta block of k2
    cross = -1 if (len(t1) * len(e2)) % 2 else 1
    a = tuple(x + z for x, z in zip(a1, a2))
    b = tuple(x + z for x, z in zip(b1, b2))
    return (a, eta, b, deta), s1 * s2 * cross


# Symbol generators are (kind, index) pairs reusing the monomial slot kinds:
# _MY = coordinate y_i, _META = coordinate eta_i, _DY = d_y symbol, _DETA =
# d_eta symbol.  Odd generators: _META (deg -1) and _DETA (deg +1).
_GEN_DEG = {_MY: 0, _META: -1, _DY: 0, _DETA: 1}


def _gen_pairing(g1, g2):
    """Bracket of two generators; only <d_x, x> pairings survive."""
    (k1, i1), (k2, i2) = g1, g2
    if i1 != i2:
        return 0
    if (k1, k2) in ((_DY, _MY), (_DETA, _META)):
        return 1
    if (k1, k2) == (_MY, _DY):
        return -1
    if (k1, k2) == (_META, _DETA):
        # [eta, xi_eta] = -(-1)^{(-1)(+1)} [xi_eta, eta] = +1
        return 1
    return 0


def _word_degree(gens):
    return sum(_GEN_DEG[k] for k, _ in gens)


def _bracket_words(u, v):
    """Leibniz expansion of the bracket of two generator words.

    Returns a list of ``(word, sign)`` pairs where ``word`` is a raw
    concatenation of generators (not yet sorted); signs arise only from the
    Leibniz rules
        [A.g, B] = A.[g, B] + (-1)^{|g||B|} [A, B].g
        [g, B.h] = [g, B].h + (-1)^{|g||B|} B.[g, h].
    """
    if not u or not v:
        return []
    if len(u) > 1:
        head, g = u[:-1], u[-1]
        out = [(list(head) + w, s) for (w, s) in _bracket_words([g], v)]
        sign = -1 if (_GEN_DEG[g[0]] * _word_degree(v)) % 2 else 1
        out.extend((w + [g], s * sign) for (w, s) in _bracket_words(head, v))
        return out
    g = u[0]
    if len(v) == 1:
        val = _gen_pairing(g, v[0])
        return [([], val)] if val else []
    head, h = v[:-1], v[-1]
    out = [(w + [h], s) for (w, s) in _bracket_words([g], head)]
    val = _gen_pairing(g, h)
    if val:
        sign = -1 if (_GEN_DEG[g[0]] * _word_degree(head)) % 2 else 1
        out.append((list(head), sign * val))
    return out


def _key_from_gens(gens, m):
    """Sort a raw generator word into a canonical symbol key.

    Returns ``(key, sign)`` with the Koszul sorting sign, or ``(None, 0)``
    when an odd generator repeats.
    """
    a = [0] * m
    b = [0] * m
    odd = []
    for kind, i in gens:
        if kind == _MY:
            a[i - 1] += 1
        elif kind == _DY:
            b[i - 1] += 1
        elif kind == _META:
            odd.append((0, i))
        else:
            odd.append((1, i))
    sign = 1
    for x in range(len(odd)):
        for z in range(x + 1, len(odd)):
            if odd[x] == odd[z]:
                return None, 0
            if odd[x] > odd[z]:
                sign = -sign
    eta = tuple(sorted(i for (t, i) in odd if t == 0))
    deta = tuple(sorted(i for (t, i) in odd if t == 1))
    return (tuple(a), eta, tuple(b), deta), sign


def schouten(P1: Polyvector, P2: Polyvector) -> Polyvector:
    """Schouten--Nijenhuis bracket via graded Leibniz expansion on symbols.

    This route never touches operator composition; the test suite
    cross-checks it against the principal symbol of the commutator of lifts.
    """
    if P1.m != P2.m:
        raise ValueError("signature mismatch")
    m = P1.m
    out = {}
    right = [(k2, _gen_sequence(k2, m), h2) for k2, h2 in _hbar_items(P2.terms)]
    for k1, h1 in _hbar_items(P1.terms):
        g1 = _gen_sequence(k1, m)
        for k2, g2, h2 in right:
            if not g1 or not g2:
                continue
            for word, s in _bracket_words(g1, g2):
                key, ks = _key_from_gens(word, m)
                if key is not None:
                    _add_terms(out, key, h1, h2, s * ks)
    arity = max(P1.arity + P2.arity - 1, 0)
    return Polyvector._from_store(m, arity, out)
