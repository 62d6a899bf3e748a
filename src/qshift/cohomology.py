"""Cohomology dimensions of the critical-locus complexes: the hbar-twisted
de Rham complex from exact finite truncations, and the Milnor number and
the hbar = 0 Koszul homology from one Groebner basis of the partials.

The eta-model complex is O_X = Q[y] (x) Lambda[eta] with differential
delta + hbar * Sum_i d_{y_i} d_{eta_i}; its cohomology over Q(hbar) is
computed slice-by-slice from exact matrices.  Truncations are either by
quasi-homogeneity weight (an honest subcomplex) or by total y-degree with a
stabilisation window; failure to stabilise is an error, never a silent
answer.  The Jacobian ring Q[y]/(df) needs no truncation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .coefficients import HSeries, _accumulate, rank_over_hbar_field
from .errors import (NonIsolated, NotPolynomial, NotStabilised,
                     TruncationRequired, ZeroPolynomial)
from .gca import CritLocus, Element, apply_koszul_delta

WEIGHT_GRADED = "WeightGraded"
DEGREE_TRUNCATED = "DegreeTruncated"


class TruncationSpec:
    """How to render the complexes finite-dimensional slice-wise."""

    __slots__ = ("mode", "bound", "stabilisation_window")

    def __init__(self, mode, bound, stabilisation_window=2):
        if mode not in (WEIGHT_GRADED, DEGREE_TRUNCATED):
            raise ValueError(f"unknown truncation mode {mode!r}")
        if stabilisation_window < 1:
            raise ValueError("the stabilisation window must be at least 1")
        self.mode = mode
        self.bound = int(bound)
        self.stabilisation_window = int(stabilisation_window)

    def as_dict(self):
        return {"mode": self.mode, "bound": self.bound,
                "stabilisation_window": self.stabilisation_window}

    def __repr__(self):
        return (f"TruncationSpec({self.mode}, bound={self.bound}, "
                f"window={self.stabilisation_window})")


class CohomologyReport:
    """Dimensions by degree; ``truncation`` is None if none was needed."""

    __slots__ = ("dims_by_degree", "field", "truncation", "stabilised", "euler",
                 "certificate")

    def __init__(self, dims_by_degree, field, truncation, stabilised,
                 certificate=None):
        self.dims_by_degree = {int(d): int(n) for d, n in dims_by_degree.items() if n}
        self.field = field
        self.truncation = truncation
        self.stabilised = stabilised
        self.certificate = certificate or {}
        self.euler = sum((-1) ** (d % 2) * n
                         for d, n in self.dims_by_degree.items())

    @property
    def total(self):
        return sum(self.dims_by_degree.values())

    def as_dict(self):
        return {"dims": {str(d): n for d, n in sorted(self.dims_by_degree.items())},
                "field": self.field,
                "stabilised": self.stabilised,
                "euler": self.euler,
                "total": self.total,
                "truncation": self.truncation and self.truncation.as_dict(),
                **self.certificate}

    def __repr__(self):
        return f"CohomologyReport({self.dims_by_degree}, field={self.field})"


# ---------------------------------------------------------------------------
# Monomial enumeration
# ---------------------------------------------------------------------------

def _weight_steps(m, weights=None):
    """``(den, steps)``: the weights scaled to integers by the lcm ``den`` of
    their denominators; all steps 1 (and den 1) without weights."""
    if not weights:
        return 1, [1] * m
    den = math.lcm(*(Fraction(w).denominator for w in weights))
    return den, [int(Fraction(w) * den) for w in weights]


def _walk_exponents(steps, budget):
    """Exponent vectors a with sum(a_i * steps_i) <= budget (an int), in
    lexicographic order."""
    m = len(steps)

    def rec(i, budget, prefix):
        if i == m:
            yield prefix
            return
        for k in range(budget // steps[i] + 1):
            yield from rec(i + 1, budget - k * steps[i], prefix + (k,))

    yield from rec(0, budget, ())


def iter_y_exponents(m, cap, weights=None):
    """Exponent vectors with total degree <= cap, or weight <= cap when
    weights are given, in lexicographic order.  The weights are scaled to
    integers by the lcm of their denominators, so the walk is int-only."""
    den, steps = _weight_steps(m, weights)
    yield from _walk_exponents(steps, math.floor(Fraction(cap) * den))


def eta_subsets(m):
    return sorted(S for k in range(m + 1)
                  for S in itertools.combinations(range(1, m + 1), k))


def element_keys_in_window(X, cutoff, mode):
    """All (y_exps, eta) monomial keys within the cutoff, grouped by degree."""
    m = X.m
    weights = X.signature.weights
    if mode == WEIGHT_GRADED and weights is None:
        raise TruncationRequired(
            "f is not quasi-homogeneous; use DegreeTruncated mode")
    by_degree = {}
    for S in eta_subsets(m):
        if mode == WEIGHT_GRADED:
            eta_weight = sum(1 - weights[i - 1] for i in S)
            budget = Fraction(cutoff) - eta_weight
            if budget < 0:
                continue
            alist = iter_y_exponents(m, budget, weights)
        else:
            alist = iter_y_exponents(m, cutoff)
        for a in alist:
            by_degree.setdefault(-len(S), []).append((a, S))
    return by_degree


def bv_apply(X: CritLocus, a: Element) -> Element:
    """Apply Sum_i d_{y_i} d_{eta_i} (no hbar factor)."""
    out = Element.zero(X.m)
    for i in range(1, X.m + 1):
        out = out + a.contract_eta(i).partial_y(i)
    return out


def _twisted_image(X, key):
    """delta + hbar*BV applied to a single monomial, as {key: HSeries}."""
    mono = Element(X.m, {key: HSeries.const(1)})
    img = apply_koszul_delta(X, mono) + bv_apply(X, mono).scale(HSeries.monomial(1))
    return img.terms


# ---------------------------------------------------------------------------
# Slice-wise cohomology dimensions
# ---------------------------------------------------------------------------

def _image_rank(images, seed):
    """Rank over Q(hbar) of the matrix whose rows are the given images, over
    the columns they touch.  Zero cells are a shared plain 0."""
    col_index = {}
    for img in images:
        for key in img:
            col_index.setdefault(key, len(col_index))
    if not col_index:
        return 0
    rows = []
    for img in images:
        row = [0] * len(col_index)
        for key, c in img.items():
            row[col_index[key]] = c
        rows.append(row)
    return rank_over_hbar_field(rows, seed)


def _dims_at_cutoff(X, cutoff, mode, image, seed):
    """Cohomology dims of the truncated complex at one cutoff.

    Per degree d the quotient is ker(D on an enlarged domain containing all
    image supports) by im(D from the truncated (d-1)-slice); both matrices
    are exact and only ranks are needed since D o D = 0.  ``image`` maps a
    monomial key to its image {key: HSeries}.
    """
    by_degree = element_keys_in_window(X, cutoff, mode)
    dims = {}
    for d, basis in sorted(by_degree.items()):
        prev_images = [image(key) for key in by_degree.get(d - 1, [])]
        domain = dict.fromkeys(basis)
        for img in prev_images:
            for key in img:
                domain.setdefault(key)
        rank_d = _image_rank([image(key) for key in domain], seed)
        rank_prev = _image_rank(prev_images, seed)
        h = len(domain) - rank_d - rank_prev
        if h:
            dims[d] = h
    return dims


def twisted_derham_dims(X: CritLocus, trunc: TruncationSpec,
                        seed: int = 0) -> CohomologyReport:
    """Dimensions over Q(hbar) of the hbar-twisted de Rham complex, taken when
    ``stabilisation_window`` + 1 consecutive cutoffs agree; else NotStabilised."""
    images = {}

    def image(key):
        # each monomial's image is computed once per command, across cutoffs
        if key not in images:
            images[key] = _twisted_image(X, key)
        return images[key]

    history = []
    for cutoff in range(1, trunc.bound + 1):
        dims = _dims_at_cutoff(X, cutoff, trunc.mode, image, seed)
        history.append(dims)
        if len(history) > trunc.stabilisation_window and all(
                h == dims for h in history[-(trunc.stabilisation_window + 1):-1]):
            return CohomologyReport(dims, "Q(hbar)", trunc, True)
    raise NotStabilised(
        f"dimensions did not stabilise below cutoff {trunc.bound} "
        f"({trunc.mode}); refusing to guess")


# ---------------------------------------------------------------------------
# Jacobian ring: a grevlex Groebner basis of the partials
# ---------------------------------------------------------------------------

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


def _groebner(polys):
    """Minimal grevlex Groebner basis of the ideal of the {exponents: Fraction}
    polynomials, as (leading monomial, monic polynomial) pairs: Buchberger's
    algorithm taking the pair with the smallest lcm first, and skipping a pair
    only when the coprime-leading-monomial criterion or the chain criterion
    proves that its S-polynomial reduces to 0 (Cox-Little-O'Shea, ch. 2)."""
    basis, pending = [], {}  # {frozenset({i, j}): lcm of their leads}

    def add(p):
        lead = max(p, key=_grevlex)
        for i, (other, _) in enumerate(basis):
            pending[frozenset((i, len(basis)))] = tuple(map(max, other, lead))
        basis.append((lead, {a: v / p[lead] for a, v in p.items()}))

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


class _Certified(int):
    """An int with ``certificate``, the payload fields of its proof."""


def milnor_number(f: Element, m: int) -> int:
    """dim_Q Q[y]/(df/dy_1, ..., df/dy_m) from a grevlex Groebner basis G.

    The standard monomials (divisible by no leading monomial of G) are a
    Q-basis of the quotient, so mu is their count: 0 for the unit ideal.
    Each y_i needs a pure power y_i^e among the leading monomials, which
    bounds a_i < e; without one, all powers of y_i are standard: NonIsolated.
    """
    if f.is_zero():
        raise ZeroPolynomial("f = 0")
    if not f.is_polynomial():
        raise NotPolynomial("f must be a polynomial in y only")
    leads = sorted((lead for lead, _ in _groebner(
        [{a: c[0] for (a, _), c in f.partial_y(i).terms.items()}
         for i in range(1, m + 1)])), key=_grevlex)
    box = []
    for i in range(m):
        powers = [a[i] for a in leads if not any(a[:i] + a[i + 1:])]
        if not powers:
            raise NonIsolated(f"no leading monomial of (df) is a power of "
                              f"y_{i + 1}: Q[y]/(df) is infinite-dimensional")
        box.append(range(min(powers)))
    mu = _Certified(sum(1 for a in itertools.product(*box)
                        if not any(_divides(lead, a) for lead in leads)))
    mu.certificate = {"certificate": "groebner-grevlex",
                      "leading_monomials": [list(a) for a in leads]}
    return mu


def koszul_dims_at_hbar_zero(X: CritLocus) -> CohomologyReport:
    """Cohomology over Q of the Koszul complex of the partials (hbar = 0).

    ``milnor_number`` proves Q[y]/(df) finite or refuses f.  So at each
    maximal ideal containing them the m partials generate an ideal of height
    m in a Cohen-Macaulay ring: a regular sequence.  The Koszul homology,
    supported at those points, is the Jacobian ring in degree 0: {0: mu}.
    """
    mu = milnor_number(X.f, X.m)
    return CohomologyReport({0: mu}, "Q", None, True, mu.certificate)
