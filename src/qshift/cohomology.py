"""Cohomology dimensions of the critical-locus complexes: the hbar-twisted
de Rham complex, and the Milnor number and the hbar = 0 Koszul homology,
each answered with the proof that makes it exact.

The eta-model complex is O_X = Q[y] (x) Lambda[eta] with differential
delta + hbar * Sum_i d_{y_i} d_{eta_i}; both act on elements as brackets
in the one product kernel.  Its cohomology over Q(hbar) is taken from one
exact rank per degree slice when f is quasi-homogeneous (weight
rescaling), and from the tameness theorem when f is semi-quasi-homogeneous;
anything else is refused.  A slice holds the keys of a weight window,
packed by the one enumerator ``coefficients.packed_keys``, and its images
come from one banded call.  The weights are solved here, not held by the
CritLocus.  Every function takes a CritLocus, the top part f_w of a
tameness certificate too, so only ``gca.make_crit_locus`` checks and
differentiates f.  The Jacobian ring Q[y]/(df) comes from one Groebner
basis of its partials, built fraction-free on packed grevlex keys, and mu
counts its standard monomials by the Hilbert recursion.

A dimension answer is its report payload, a dict (``_payload``); the Milnor
number is an int that carries its ``certificate``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .coefficients import (FIELD_BITS, _accumulate, _admit, _div,
                           _odd_masks, _same_m, codec, packed_keys,
                           rank_rational, solve_rational)
from .diffops import _banded_images, _product_into
from .errors import NonIsolated, NotCertified
from .gca import CritLocus, Element, apply_koszul_delta, make_crit_locus


def _payload(dims, field, certificate):
    """The report payload of nonzero dimensions by degree: {degree as a
    string: n} in degree order, the field, their Euler characteristic and
    total, then ``certificate``, the fields of the proof that they are
    exact."""
    dims = {d: int(n) for d, n in sorted(dims.items()) if n}
    return {"dims": {str(d): n for d, n in dims.items()}, "field": field,
            "stabilised": True,
            "euler": sum(-n if d % 2 else n for d, n in dims.items()),
            "total": sum(dims.values()), **certificate}


# ---------------------------------------------------------------------------
# The element window and the BV operator on it
# ---------------------------------------------------------------------------

def element_keys_in_window(X, cutoff, weights):
    """All packed monomial keys y^a eta_S of weight <= cutoff, grouped by
    degree; y_i weighs w_i and eta_i weighs 1 - w_i (f quasi-homogeneous).
    Times the lcm of their denominators, the weights and budgets are ints."""
    den = math.lcm(*(Fraction(w).denominator for w in weights))
    steps = [int(w * den) for w in weights]
    top = math.floor(Fraction(cutoff) * den)
    C, by_degree = codec(X.m), {}
    for size, eta, _ in _odd_masks(X.m):
        budget = top - sum(den - step for step, bit in zip(steps, C.eta_bits)
                           if eta & bit)
        if budget >= 0:
            by_degree.setdefault(-size, []).extend(
                eta + a for a in packed_keys(C.y, steps, budget))
    return by_degree


def bv_apply(X: CritLocus, a: Element) -> Element:
    """Apply Sum_i d_{y_i} d_{eta_i} (no hbar factor) as the brackets
    Sum_i [d_{y_i}, [d_{eta_i}, a]]: a first-order operator's bracket with
    an element is its image, so the kernel keeps no derivative."""
    _same_m(X.m, a)
    C, out = codec(X.m), {}
    for dy, deta in zip(C.dy, C.deta_bits):
        inner = {}
        _product_into(inner, ((deta, 1),), a.terms.items(), C, bracket=True)
        _product_into(out, ((dy, 1),), inner.items(), C, bracket=True)
    return Element._from_store(X.m, out)


def _slice_rank(X, basis):
    """Rank over Q of delta + Delta, the differential at hbar = 1, on the
    monomial keys ``basis`` (one degree): one sparse row per image, the
    images from one banded call, over the columns they touch."""
    cols = {}
    return rank_rational([
        {cols.setdefault(k, len(cols)): c for k, c in img.items()}
        for img in _banded_images(X.m, basis, lambda b: (
            apply_koszul_delta(X, b) + bv_apply(X, b)))])


# ---------------------------------------------------------------------------
# The twisted de Rham cohomology, by certificate
# ---------------------------------------------------------------------------

def _unit_weights(exps, m):
    """Positive weights w_1 .. w_m under which every exponent vector a of
    ``exps`` weighs Sum_i w_i a_i = 1 exactly, or None.  The solve sets a
    weight that the vectors leave free to 0, so a variable that no vector
    uses gets no weight: None."""
    rows = [{i: e for i, e in enumerate(a) if e} for a in exps]
    sol = solve_rational(rows, dict.fromkeys(range(len(rows)), 1), m)
    if sol is None:
        return None
    weights = tuple(sol.get(i, 0) for i in range(m))
    if min(weights) <= 0 or any(
            sum(w * e for w, e in zip(weights, a)) != 1 for a in exps):
        return None
    return weights


def _weight_rescaling(X, weights):
    """Quasi-homogeneous f with an isolated singularity, of ``weights``.

    Give y_i the weight w_i, eta_i the weight 1 - w_i and hbar the weight 1.
    Then delta keeps the weight and hbar * Delta does too, so every matrix
    entry from a monomial of weight u to one of weight v is c * hbar^(u - v)
    with c its value at hbar = 1: the matrix is diag(hbar^-v) M(1)
    diag(hbar^u), invertible diagonal rescalings over Q(hbar^(1/den)), and
    its rank over Q(hbar) is the rank of M(1) over Q.

    Over Q(hbar), with hbar of weight 0, D does not raise the weight, so the
    span F_c of the monomials of weight <= c is a subcomplex and the complex
    is the union of the F_c (weights lie in (1/den)Z, so each F_c'/F_c has a
    finite filtration).  gr_c F is the Koszul complex of the partials in
    weight c.  ``milnor_number`` proves f isolated, so the partials are a
    regular sequence and that cohomology is the weight-c part of the
    Jacobian ring J, which lives in weights 0 .. socle = Sum (1 - 2 w_i).
    So every gr_u with u > socle is acyclic and F_c -> F_c' is a
    quasi-isomorphism for c' >= c >= socle: the one cutoff c = socle gives
    the cohomology of the whole complex.
    """
    milnor_number(X)
    cutoff = sum(1 - 2 * w for w in weights)
    by_degree = element_keys_in_window(X, cutoff, weights)
    rank = {d: _slice_rank(X, basis) for d, basis in by_degree.items()}
    dims = {d: len(basis) - rank[d] - rank.get(d - 1, 0)
            for d, basis in by_degree.items()}
    return _payload(dims, "Q(hbar)", {
        "certificate": "weight-rescaling",
        "weights": [str(w) for w in weights], "cutoff": str(cutoff)})


def _tame(X):
    """f semi-quasi-homogeneous, hence tame.

    The certificate is positive weights w under which every monomial of f
    weighs at most 1 and the top part f_w (weight exactly 1) has an
    isolated singularity.  w is solved from m exponent vectors of weight 1:
    monomials of f, or y_i^2, which pins w_i = 1/2 where the monomials leave
    the weights free (x*y).  Then f is tame and
    mu(f) = mu(f_w) = Prod (1/w_i - 1) (Broughton 1988; Milnor-Orlik 1970),
    both checked here against Groebner bases (one alone when f_w is f, as
    for x*y or x*y + z^2, whose weights only the squares pin), and a tame f
    has twisted de Rham cohomology in degree 0 only, of dimension mu(f).
    Without a certificate f is refused: NotCertified.
    """
    mu = milnor_number(X)
    exps = {k: codec(X.m).y_exponents(k) for k in X.f.terms}
    monomials = list(exps.values())
    squares = [tuple(2 * (j == i) for j in range(X.m)) for i in range(X.m)]
    for chosen in itertools.combinations(monomials + squares, X.m):
        weights = _unit_weights(chosen, X.m)
        if weights is None:
            continue
        weight = {a: sum(w * e for w, e in zip(weights, a)) for a in monomials}
        if max(weight.values()) > 1:
            continue
        top = {k: c for k, c in X.f.terms.items() if weight[exps[k]] == 1}
        try:  # a top part that is all of f (as for x*y) has mu(f), above
            mu_top = mu if len(top) == len(X.f.terms) else milnor_number(
                make_crit_locus(Element._from_store(X.m, top), X.m, X.names))
        except NonIsolated:
            continue
        if mu_top == mu == math.prod(_div(1, w) - 1 for w in weights):
            return _payload({0: mu}, "Q(hbar)", {
                "certificate": "tame:semi-quasi-homogeneous",
                "weights": [str(w) for w in weights], "cutoff": None})
    raise NotCertified("no semi-quasi-homogeneous weights certify f tame; "
                       "refusing to guess its twisted de Rham cohomology")


def twisted_derham_dims(X: CritLocus) -> dict:
    """Dimensions over Q(hbar) of the hbar-twisted de Rham complex, with the
    proof that f admits: the weight-rescaling argument of
    ``_weight_rescaling`` when all of f's monomials weigh 1 under one set of
    positive weights, else the tameness certificate of ``_tame``."""
    C = codec(X.m)
    weights = _unit_weights([C.y_exponents(k) for k in X.f.terms], X.m)
    if weights is not None:
        return _weight_rescaling(X, weights)
    return _tame(X)


# ---------------------------------------------------------------------------
# Jacobian ring: a grevlex Groebner basis of the partials, on packed keys
# ---------------------------------------------------------------------------

_TOP = (1 << FIELD_BITS - 1) - 1  # the field of exponent 0
_FIELD = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _grevlex_layout(m):
    """(key of 1, guard bits) of the packed grevlex keys in m variables.

    A key is an ``int`` whose integer order is grevlex: the total degree |a|
    on top, and below it, from a_m down to a_1, one ``FIELD_BITS``-wide
    field per variable holding 2^15 - 1 - a_i under a clear guard bit.  The
    key is affine in a, so key(a) - key(lead) carries each term of a
    polynomial led by ``lead`` to its multiple by y^(a - lead) in one
    addition, and an exponent pushed past 2^15 - 1 borrows into its guard.
    ``lead`` divides ``a`` iff (lead | guards) - a borrows from no guard bit
    (Monagan and Pearce 2007)."""
    fields = range(0, FIELD_BITS * m, FIELD_BITS)
    return (sum(_TOP << s for s in fields),
            sum(1 << FIELD_BITS - 1 << s for s in fields))


def _add_multiple(p, c, a, lead, g, guards, m):
    """p += c * y^(a - lead) * g for g led by ``lead``: one addition per
    term.  Returns the keys that the update adds to p.  Each term of the
    product is at most y^a, so no exponent exceeds |a|; past 2^15 - 1 an
    exponent borrows into its field's guard bit, and is refused as in the
    codec."""
    shift = a - lead
    if a >> FIELD_BITS * m > _TOP and any((b + shift) & guards for b in g):
        codec(m).overflow()
    new = []
    for b, v in g.items():
        if (k := b + shift) not in p:
            new.append(k)
        _accumulate(p, k, c * v)
    return new


def _reduce(p, basis, guards, m):
    """Primitive remainder of p {key: int}, with a positive leading
    coefficient, on full division by ``basis``: (lead, lead | guards, g),
    g primitive with a positive leading coefficient.  A step cancels the
    leading term c y^a of p by u p - v y^(a - lead) g, for u / v the leading
    coefficient of g over c in lowest terms: fraction-free, and the
    remainder is the one over Q up to a factor.

    A p that no lead divides is its own remainder, made primitive in one
    pass, and so is an empty p.  Otherwise p is walked from the top through
    a heap of its keys (heap-ordered division, Monagan and Pearce 2007): a
    step pushes the keys that it adds, and a key that has cancelled is
    skipped when it comes up, so no step scans p for its leading term.  A
    step with u != 1 scales p alone: a remainder term c y^a records U_a,
    the product of the factors u so far, and the remainder is scaled once,
    at the end, to c U / U_a for U the product of them all."""
    if not any((test - a) & guards == guards
               for a in p for _, test, _ in basis):
        rem = dict(p)
    else:
        p, rem, scale = dict(p), {}, 1
        heap = [-a for a in p]
        heapq.heapify(heap)
        while heap:
            a = -heapq.heappop(heap)
            c = p.get(a)
            if c is None:
                continue
            for lead, test, g in basis:
                if (test - a) & guards == guards:
                    d = math.gcd(g[lead], c)
                    u, v = g[lead] // d, c // d
                    if u != 1:
                        p = {k: x * u for k, x in p.items()}
                        scale *= u
                    for k in _add_multiple(p, -v, a, lead, g, guards, m):
                        heapq.heappush(heap, -k)
                    break
            else:
                rem[a] = (p.pop(a), scale)
        for a, (c, at) in rem.items():
            rem[a] = c if at == scale else c * (scale // at)
    if rem:
        d = math.gcd(*rem.values()) * (1 if rem[max(rem)] > 0 else -1)
        if d != 1:
            for a in rem:
                rem[a] //= d
    return rem


def _groebner(polys, m):
    """Minimal grevlex Groebner basis of the ideal of the {key: int}
    polynomials, as (leading key, primitive polynomial) pairs: Buchberger's
    algorithm with its pending pairs on a heap keyed (lcm of their leads,
    creation order), so it takes the pair with the smallest lcm first, the
    earliest made among equals.  A pair whose leads are coprime is dropped
    when it is made and counts as done, as its S-polynomial reduces to 0;
    a pair is skipped when the chain criterion proves that its S-polynomial
    reduces to 0: a third lead divides its lcm, and neither of its pairs
    with the two is pending (Gebauer and Moeller 1988; Cox-Little-O'Shea,
    ch. 2)."""
    one, guards = _grevlex_layout(m)
    shifts = range(0, FIELD_BITS * m, FIELD_BITS)
    basis, heap, serial = [], [], itertools.count()
    pending = set()  # the heap's pairs (i, j), each in both orders

    def lcm(x, y):  # the smaller field holds the larger exponent
        low = [min(x >> s & _FIELD, y >> s & _FIELD) for s in shifts]
        return ((m * _TOP - sum(low)) << FIELD_BITS * m
                | sum(v << s for v, s in zip(low, shifts)))

    def add(p):
        lead, j = max(p), len(basis)
        for i, (other, _, _) in enumerate(basis):
            key = lcm(other, lead)
            if key != other + lead - one:
                heapq.heappush(heap, (key, next(serial), i, j))
                pending.update(((i, j), (j, i)))
        basis.append((lead, lead | guards, p))

    for p in polys:
        if r := _reduce(p, basis, guards, m):
            add(r)
    while heap:
        key, _, i, j = heapq.heappop(heap)
        pending.difference_update(((i, j), (j, i)))
        if any(k != i and k != j and (test - key) & guards == guards
               and (i, k) not in pending and (j, k) not in pending
               for k, (_, test, _) in enumerate(basis)):
            continue
        (li, _, gi), (lj, _, gj) = basis[i], basis[j]
        spoly, d = {}, math.gcd(gi[li], gj[lj])
        _add_multiple(spoly, gj[lj] // d, key, li, gi, guards, m)
        _add_multiple(spoly, -gi[li] // d, key, lj, gj, guards, m)
        if r := _reduce(spoly, basis, guards, m):
            add(r)
    return [(lead, g) for lead, _, g in basis
            if not any(o != lead and (test - lead) & guards == guards
                       for o, test, _ in basis)]


def _standard_count(leads):
    """How many exponent vectors no vector of ``leads`` divides, when the
    leads hold a power of every variable: the Hilbert function of their
    monomial ideal, summed (Bayer and Stillman 1992).  Between two
    consecutive last exponents among the leads, the leads that can divide
    stay the same, so that slab counts its width times their projections'
    count in one variable fewer; from the power of the last variable on,
    nothing is standard."""
    if not all(map(any, leads)):  # 1 is a lead
        return 0
    if len(leads[0]) == 1:
        return min(a[0] for a in leads)
    cuts = sorted({a[-1] for a in leads})
    return sum((t - s) * _standard_count([a[:-1] for a in leads if a[-1] <= s])
               for s, t in zip(cuts, cuts[1:]))


class _Certified(int):
    """An int with ``certificate``, the payload fields of its proof."""


def milnor_number(X: CritLocus) -> int:
    """dim_Q Q[y]/(df/dy_1, ..., df/dy_m) from a grevlex Groebner basis G of
    the partials that the locus X caches.

    The standard monomials (divisible by no leading monomial of G) are a
    Q-basis of the quotient, so mu is their count (``_standard_count``): 0
    for the unit ideal.  Each y_i needs a pure power y_i^e among the leading
    monomials; without one, all powers of y_i are standard: NonIsolated,
    naming y_i by ``X.names`` (the declared variables), else as y_i.  First,
    if m >= 2 and y_i^2 divides every term, the hyperplane y_i = 0 lies in
    the critical locus: NonIsolated without a Groebner basis.
    """
    C = codec(X.m)
    # a y field x < limit is >= 2 iff x + (limit - 2) sets its guard bit
    low, squares = C.y_lows - sum(C.y), (C.y_guards if X.m >= 2 else 0)
    for k in X.f.terms:
        squares &= k + low
    for i, o in enumerate(C.y_off):
        if squares >> o & C.limit:
            name = X.names[i] if X.names else f"y_{i + 1}"
            raise NonIsolated(f"{name}^2 divides every term of f, so the "
                              f"hyperplane {name} = 0 lies in the critical "
                              f"locus: Q[y]/(df) is infinite-dimensional")
    one, _ = _grevlex_layout(X.m)
    # a codec key of y^a holds a_1 .. a_m in the same fields, from bit 2m
    leads = sorted(lead for lead, _ in _groebner(_admit(
        [{(sum(k >> o & C.field for o in C.y_off) << FIELD_BITS * X.m)
          + one - (k >> 2 * X.m): c for k, c in p.terms.items()}
         for p in X.partials]), X.m))
    leads = [[_TOP - (k >> FIELD_BITS * i & C.field) for i in range(X.m)]
             for k in leads]
    for i in range(X.m):
        if not any(a[i] == sum(a) for a in leads):
            name = X.names[i] if X.names else f"y_{i + 1}"
            raise NonIsolated(f"no leading monomial of (df) is a power of "
                              f"{name}: Q[y]/(df) is infinite-dimensional")
    mu = _Certified(_standard_count(leads))
    mu.certificate = {"certificate": "groebner-grevlex",
                      "leading_monomials": leads}
    return mu


def koszul_dims_at_hbar_zero(X: CritLocus) -> dict:
    """Cohomology over Q of the Koszul complex of the partials (hbar = 0).

    ``milnor_number`` proves Q[y]/(df) finite or refuses f.  So at each
    maximal ideal containing them the m partials generate an ideal of height
    m in a Cohen-Macaulay ring: a regular sequence.  The Koszul homology,
    supported at those points, is the Jacobian ring in degree 0: {0: mu}.
    """
    mu = milnor_number(X)
    return _payload({0: mu}, "Q", mu.certificate)
