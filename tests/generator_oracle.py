"""Generator-by-generator operator arithmetic, for the tests only: the four
left-composition rules of a generator with a normal-ordered monomial, the
fold of a generator word through a combination of monomials, and the
evaluation of an operator on an element.  The engine multiplies monomials
in closed form (Leibniz steps and the Clifford ordering of the odd parts);
every Koszul sign of that closed form is a consequence of these rules, so
the tests check the engine against them."""

from qshift.coefficients import _accumulate, codec
from qshift.gca import Element

# The generator kinds of a monomial word: y_i, eta_i, d_y_i and d_eta_i.
MY, META, DY, DETA = 0, 1, 2, 3


def parity(mask):
    return -1 if mask.bit_count() & 1 else 1


def gen_sequence(key, C):
    """Generator factors of a monomial key, left to right."""
    a, eta, b, deta, _ = C.decode(key)
    seq = []
    for i in range(C.m):
        seq.extend([(MY, i + 1)] * a[i])
    seq.extend((META, i) for i in eta)
    for i in range(C.m):
        seq.extend([(DY, i + 1)] * b[i])
    seq.extend((DETA, i) for i in deta)
    return seq


def compose_gen_key(gen, key, C):
    """Left-compose one generator with a normal-ordered monomial key.

    Yields ``(new_key, integer coefficient)`` pairs.
    """
    kind, i = gen
    if kind == MY:
        yield C.check(key + C.y[i - 1]), 1
    elif kind == META:
        bit = C.eta_bits[i - 1]
        if not key & bit:
            yield key | bit, parity(key & C.eta & (bit - 1))
    elif kind == DY:
        a = key >> C.y_off[i - 1] & C.field
        if a:
            yield key - C.y[i - 1], a
        yield C.check(key + C.dy[i - 1]), 1
    else:  # DETA
        bit = C.eta_bits[i - 1]
        if key & bit:
            yield key ^ bit, parity(key & C.eta & (bit - 1))
        dbit = C.deta_bits[i - 1]
        if not key & dbit:
            # past all of eta_S, then into place among d_eta_T
            yield key | dbit, parity(key & C.eta) * parity(
                key & C.deta & (dbit - 1))


def fold(gens, state, C):
    """Left-compose the generator word ``gens`` with ``state``, a
    {normal-ordered key: integer coefficient} combination, one generator at
    a time from the right."""
    for gen in reversed(gens):
        nxt = {}
        for key, coeff in state.items():
            for nkey, c in compose_gen_key(gen, key, C):
                _accumulate(nxt, nkey, coeff * c)
        state = nxt
        if not state:
            break
    return state


def op_apply(D, a):
    """Evaluate the operator on an element, one generator at a time: the
    reference that the closed-form product is checked against."""
    if D.m != a.m:
        raise ValueError("signature mismatch")
    C = codec(D.m)
    out = {}
    for key, c in D.terms.items():
        state = a.terms
        for kind, i in reversed(gen_sequence(key, C)):
            bit, nxt = C.eta_bits[i - 1], {}
            for k, ce in state.items():
                if kind == MY:
                    _accumulate(nxt, C.check(k + C.y[i - 1]), ce)
                elif kind == DY:
                    n = k >> C.y_off[i - 1] & C.field
                    if n:
                        _accumulate(nxt, k - C.y[i - 1], n * ce)
                elif (kind == META) != bool(k & bit):
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
