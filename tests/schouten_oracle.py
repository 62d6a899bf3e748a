"""Independent Schouten--Nijenhuis bracket and symbol product, for the
tests only: the graded Leibniz expansion of the bracket on generator words,
and the closed form of the free graded-commutative product.  The engine
takes both from the one product kernel (the bracket as the principal symbol
of the commutator of lifts, the product as the top-order part of their
composite); these routes never touch operator composition, so the tests
check the engine against them."""

from qshift.coefficients import _accumulate, _shuffle, codec
from qshift.diffops import Polyvector

from generator_oracle import DETA, DY, META, MY, gen_sequence, parity

# Symbol generators are (kind, index) pairs reusing the monomial slot kinds:
# MY = coordinate y_i, META = coordinate eta_i, DY = d_y symbol, DETA =
# d_eta symbol.  Odd generators: META (deg -1) and DETA (deg +1).
_GEN_DEG = {MY: 0, META: -1, DY: 0, DETA: 1}


def _gen_pairing(g1, g2):
    """Bracket of two generators; only <d_x, x> pairings survive."""
    (k1, i1), (k2, i2) = g1, g2
    if i1 != i2:
        return 0
    if (k1, k2) in ((DY, MY), (DETA, META)):
        return 1
    if (k1, k2) == (MY, DY):
        return -1
    if (k1, k2) == (META, DETA):
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


def _key_from_gens(gens, C):
    """Sort a raw generator word into a canonical symbol key.

    Returns ``(key, sign)`` with the Koszul sorting sign, or ``(None, 0)``
    when an odd generator repeats.
    """
    key = 0
    odd = []
    for kind, i in gens:
        if kind == MY:
            key += C.y[i - 1]
        elif kind == DY:
            key += C.dy[i - 1]
        elif kind == META:
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
    for t, i in odd:
        key += (C.deta_bits if t else C.eta_bits)[i - 1]
    return C.check(key), sign


def schouten_by_words(P1: Polyvector, P2: Polyvector) -> Polyvector:
    """Schouten--Nijenhuis bracket via graded Leibniz expansion on symbols."""
    if P1.m != P2.m:
        raise ValueError("signature mismatch")
    m = P1.m
    C = codec(m)
    out = {}
    right = [(gen_sequence(k2, C), k2 - (k2 & C.mono), c2)
             for k2, c2 in P2.terms.items()]
    for k1, c1 in P1.terms.items():
        g1 = gen_sequence(k1, C)
        h1 = k1 - (k1 & C.mono)
        for g2, h2, c2 in right:
            if not g1 or not g2:
                continue
            for word, s in _bracket_words(g1, g2):
                key, ks = _key_from_gens(word, C)
                if key is not None:
                    _accumulate(out, key + h1 + h2, s * ks * c1 * c2)
    return Polyvector._from_store(m, out)


def pv_mul_closed_form(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Free graded-commutative product of symbols, term by term: the y and
    d_y parts add, the odd parts merge with their shuffle signs, and the
    d_eta block of P passes the eta block of Q with (-1)^(|T||U|)."""
    if P.m != Q.m:
        raise ValueError("signature mismatch")
    C = codec(P.m)
    odd = C.odd
    out = {}
    right = [(k & ~odd, k & C.eta, k & C.deta, c) for k, c in Q.terms.items()]
    for k1, c1 in P.terms.items():
        e1, S, T = k1 & ~odd, k1 & C.eta, k1 & C.deta
        for e2, U, V, c2 in right:
            if S & U or T & V:
                continue
            cross = parity(T) if U.bit_count() & 1 else 1
            _accumulate(out, C.check(e1 + e2) | S | U | T | V,
                        _shuffle(S, U) * _shuffle(T, V) * cross * c1 * c2)
    return Polyvector._from_store(P.m, out)
