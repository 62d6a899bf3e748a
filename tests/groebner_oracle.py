"""The Jacobian ring on exponent tuples and ``Fraction``s, for the tests only:
Buchberger's algorithm with monic polynomials and a tuple grevlex key, and
mu counted by walking the box Prod [0, e_i) of the pure powers y_i^e_i.
The engine runs the same algorithm on packed integer keys with primitive
integer polynomials and counts mu by the Hilbert recursion; the tests check
that both give the same mu, the same leading monomials in the same order,
and the same refusals.

``packed_reduce`` is the engine's division on packed keys as it was before
the heap walk: the leading term found by ``max`` at every step, and the
whole remainder scaled at every step with u != 1.  The tests check that the
heap walk gives the same remainder, term for term."""

import itertools
import math

from qshift.coefficients import FIELD_BITS, _accumulate, _div, codec
from qshift.errors import NonIsolated


def _grevlex(a):
    """Sort key of an exponent vector in graded reverse lexicographic order."""
    return sum(a), tuple(-x for x in reversed(a))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _add_multiple(p, c, q, g):
    """p += c * y^q * g, in place."""
    for b, d in g.items():
        _accumulate(p, tuple(x + y for x, y in zip(b, q)), c * d)


def _reduce(p, basis):
    """Remainder of p on full division by ``basis``, a list of (leading
    monomial, monic polynomial) pairs."""
    p, rem = dict(p), {}
    while p:
        a = max(p, key=_grevlex)
        for lead, g in basis:
            if _divides(lead, a):
                _add_multiple(p, -p[a], tuple(x - y for x, y in zip(a, lead)), g)
                break
        else:
            rem[a] = p.pop(a)
    return rem


def groebner(polys):
    """Minimal grevlex Groebner basis of the ideal of the {exponents:
    rational} polynomials, as (leading monomial, monic polynomial) pairs:
    the pair with the smallest lcm first, skipping a pair only by the
    coprime-leading-monomial criterion or the chain criterion."""
    basis, pending = [], {}  # {frozenset({i, j}): lcm of their leads}

    def add(p):
        lead = max(p, key=_grevlex)
        for i, (other, _) in enumerate(basis):
            pending[frozenset((i, len(basis)))] = tuple(map(max, other, lead))
        basis.append((lead, {a: _div(v, p[lead]) for a, v in p.items()}))

    for p in polys:
        if r := _reduce(p, basis):
            add(r)
    while pending:
        pair = min(pending, key=lambda ij: _grevlex(pending[ij]))
        lcm = pending.pop(pair)
        (li, gi), (lj, gj) = (basis[k] for k in pair)
        if not any(map(min, li, lj)) or any(  # coprime leads, or a chain
                k not in pair and _divides(lk, lcm)
                and all(frozenset((i, k)) not in pending for i in pair)
                for k, (lk, _) in enumerate(basis)):
            continue
        s = {}
        _add_multiple(s, 1, tuple(x - y for x, y in zip(lcm, li)), gi)
        _add_multiple(s, -1, tuple(x - y for x, y in zip(lcm, lj)), gj)
        if r := _reduce(s, basis):
            add(r)
    return [(lead, g) for lead, g in basis
            if not any(o != lead and _divides(o, lead) for o, _ in basis)]


def box_count(leads):
    """Standard monomials of a zero-dimensional lead set, counted by testing
    every point of the box below the smallest pure power of each variable."""
    m = len(leads[0])
    box = [range(min(a[i] for a in leads if sum(a) == a[i])) for i in range(m)]
    return sum(1 for a in itertools.product(*box)
               if not any(_divides(lead, a) for lead in leads))


def milnor(f, m, names=None):
    """(mu, leading monomials in grevlex order) of the Element f in m
    variables, or NonIsolated with the engine's reasons."""
    exps = [codec(m).y_exponents(k) for k in f.terms]
    for i in range(m if m >= 2 else 0):
        if all(a[i] >= 2 for a in exps):
            name = names[i] if names else f"y_{i + 1}"
            raise NonIsolated(f"{name}^2 divides every term of f, so the "
                              f"hyperplane {name} = 0 lies in the critical "
                              f"locus: Q[y]/(df) is infinite-dimensional")
    leads = sorted((lead for lead, _ in groebner(
        [{codec(m).y_exponents(k): c for k, c in f.partial_y(i).terms.items()}
         for i in range(1, m + 1)])), key=_grevlex)
    for i in range(m):
        if not any(sum(a) == a[i] for a in leads):
            name = names[i] if names else f"y_{i + 1}"
            raise NonIsolated(f"no leading monomial of (df) is a power of "
                              f"{name}: Q[y]/(df) is infinite-dimensional")
    return box_count(leads), [list(a) for a in leads]


def packed_reduce(p, basis, guards, m):
    """Primitive remainder of the packed {key: int} p, with a positive
    leading coefficient, on full division by ``basis``, (lead, lead |
    guards, g) triples with g primitive and led positive: the step u p -
    v y^(a - lead) g cancels the leading term c y^a, for u / v = g's leading
    coefficient over c in lowest terms, and scales p and the remainder."""
    top = (1 << FIELD_BITS - 1) - 1
    p, rem = dict(p), {}
    while p:
        a = max(p)
        for lead, test, g in basis:
            if (test - a) & guards == guards:
                d = math.gcd(g[lead], p[a])
                u, v = g[lead] // d, p[a] // d
                if u != 1:
                    p = {k: c * u for k, c in p.items()}
                    rem = {k: c * u for k, c in rem.items()}
                shift = a - lead
                if a >> FIELD_BITS * m > top and any(
                        (b + shift) & guards for b in g):
                    codec(m).overflow()
                for b, w in g.items():
                    _accumulate(p, b + shift, -v * w)
                break
        else:
            rem[a] = p.pop(a)
    if rem:
        d = math.gcd(*rem.values()) * (1 if rem[max(rem)] > 0 else -1)
        rem = {k: c // d for k, c in rem.items()}
    return rem
