"""Finite-dimensional truncations of the critical-locus complexes: exact
cohomology dimensions for the hbar-twisted de Rham complex, its hbar = 0
Koszul degeneration, and the independent Milnor-number oracle.

The eta-model complex is O_X = Q[y] (x) Lambda[eta] with differential
delta + hbar * Sum_i d_{y_i} d_{eta_i}; its cohomology over Q(hbar) is
computed slice-by-slice from exact matrices.  Truncations are either by
quasi-homogeneity weight (an honest subcomplex) or by total y-degree with a
stabilisation window; failure to stabilise is an error, never a silent
answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coefficients import (HSeries, rank_over_hbar_field, rank_rational)
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
    __slots__ = ("dims_by_degree", "field", "truncation", "stabilised", "euler")

    def __init__(self, dims_by_degree, field, truncation, stabilised):
        self.dims_by_degree = {int(d): int(n) for d, n in dims_by_degree.items() if n}
        self.field = field
        self.truncation = truncation
        self.stabilised = stabilised
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
                "truncation": self.truncation.as_dict()}

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


def _subsets(indices):
    if not indices:
        yield ()
        return
    head, rest = indices[0], indices[1:]
    for s in _subsets(rest):
        yield s
        yield (head,) + s


def eta_subsets(m):
    return sorted(_subsets(tuple(range(1, m + 1))))


def element_keys_in_window(X, cutoff, mode):
    """All (y_exps, eta) monomial keys within the cutoff, grouped by degree."""
    m = X.m
    weights = X.signature.weights
    if mode == WEIGHT_GRADED and weights is None:
        raise TruncationRequired("weight truncation needs quasi-homogeneity weights")
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


def _koszul_image(X, key):
    """delta applied to a single monomial, as its hbar^0 coefficients
    {key: Fraction} (f is hbar-free, so nothing else is nonzero)."""
    mono = Element(X.m, {key: HSeries.const(1)})
    return {k: c[0] for k, c in apply_koszul_delta(X, mono).terms.items()}


# ---------------------------------------------------------------------------
# Slice-wise cohomology dimensions
# ---------------------------------------------------------------------------

def _image_rank(images, rank_fn):
    """Rank of the matrix whose rows are the given images, over the columns
    they touch.  Zero cells are a shared plain 0."""
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
    return rank_fn(rows)


def _dims_at_cutoff(X, cutoff, mode, image, rank_fn):
    """Cohomology dims of the truncated complex at one cutoff.

    Per degree d the quotient is ker(D on an enlarged domain containing all
    image supports) by im(D from the truncated (d-1)-slice); both matrices
    are exact and only ranks are needed since D o D = 0.  ``image`` maps a
    monomial key to its image {key: coefficient}.
    """
    by_degree = element_keys_in_window(X, cutoff, mode)
    dims = {}
    for d, basis in sorted(by_degree.items()):
        prev_images = [image(key) for key in by_degree.get(d - 1, [])]
        domain = dict.fromkeys(basis)
        for img in prev_images:
            for key in img:
                domain.setdefault(key)
        rank_d = _image_rank([image(key) for key in domain], rank_fn)
        rank_prev = _image_rank(prev_images, rank_fn)
        h = len(domain) - rank_d - rank_prev
        if h:
            dims[d] = h
    return dims


def _stabilised_dims(X, trunc, image_fn, rank_fn):
    images = {}

    def image(key):
        # each monomial's image is computed once per command, across cutoffs
        img = images.get(key)
        if img is None:
            img = images[key] = image_fn(X, key)
        return img

    history = []
    for cutoff in range(1, trunc.bound + 1):
        dims = _dims_at_cutoff(X, cutoff, trunc.mode, image, rank_fn)
        history.append(dims)
        if len(history) > trunc.stabilisation_window and all(
                h == dims for h in history[-(trunc.stabilisation_window + 1):-1]):
            return dims, True
    raise NotStabilised(
        f"dimensions did not stabilise below cutoff {trunc.bound} "
        f"({trunc.mode}); refusing to guess")


def twisted_derham_dims(X: CritLocus, trunc: TruncationSpec,
                        seed: int = 0) -> CohomologyReport:
    """Dimensions over Q(hbar) of the hbar-twisted de Rham complex."""
    if trunc.mode == WEIGHT_GRADED and X.signature.weights is None:
        raise TruncationRequired(
            "f is not quasi-homogeneous; use DegreeTruncated mode")

    def rank_fn(rows):
        return rank_over_hbar_field(rows, seed)

    dims, stab = _stabilised_dims(X, trunc, _twisted_image, rank_fn)
    return CohomologyReport(dims, "Q(hbar)", trunc, stab)


def koszul_dims_at_hbar_zero(X: CritLocus, trunc: TruncationSpec) -> CohomologyReport:
    """Cohomology over Q of the Koszul complex of the partials (hbar = 0)."""
    if trunc.mode == WEIGHT_GRADED and X.signature.weights is None:
        raise TruncationRequired(
            "f is not quasi-homogeneous; use DegreeTruncated mode")

    dims, stab = _stabilised_dims(X, trunc, _koszul_image, rank_rational)
    return CohomologyReport(dims, "Q", trunc, stab)


# ---------------------------------------------------------------------------
# Milnor number oracle
# ---------------------------------------------------------------------------

def milnor_number(f: Element, m: int, cap: int = 30,
                  stabilisation_window: int = 2) -> int:
    """dim_Q Q[y]/(df/dy_1, ..., df/dy_m) by exact linear algebra.

    At working degree d the ideal is approximated by the span S of all
    multiples of the partials of degree <= d + window; the candidate count is
    dim V_d - dim(S /\\ V_d), computed with ranks only (the intersection
    dimension is dim S minus the rank of S projected to degrees > d).  The
    loop stops once the count is unchanged for ``stabilisation_window``
    consecutive degrees and every degree-d monomial reduces into S modulo
    lower degree, which makes the span a complete reduction system.
    """
    if f.is_zero():
        raise ZeroPolynomial("f = 0")
    if not f.is_polynomial():
        raise NotPolynomial("f must be a polynomial in y only")
    partials = [f.partial_y(i) for i in range(1, m + 1)]
    if any(p.is_zero() for p in partials):
        raise NonIsolated("a partial derivative vanishes identically")
    partial_keys = [{a: c[0] for (a, _), c in p.terms.items()} for p in partials]
    history = []
    for d in range(1, cap + 1):
        big = d + stabilisation_window
        monomials = sorted(iter_y_exponents(m, big), key=lambda a: (sum(a), a))
        index = {a: i for i, a in enumerate(monomials)}
        n_low = sum(1 for a in monomials if sum(a) <= d)
        span = []
        for pk in partial_keys:
            pdeg = max(sum(a) for a in pk)
            for b in iter_y_exponents(m, big - pdeg):
                row = [0] * len(monomials)
                for a, c in pk.items():
                    shifted = tuple(x + z for x, z in zip(a, b))
                    row[index[shifted]] = c
                span.append(row)
        dim_span = rank_rational(span) if span else 0
        high = [row[n_low:] for row in span]
        rank_high = rank_rational(high) if span else 0
        q = n_low - (dim_span - rank_high)
        # every degree-d monomial must reduce into the span modulo lower
        # degree: adding its indicator to the >d-1 projection keeps the rank
        n_lower = sum(1 for a in monomials if sum(a) <= d - 1)
        proj = [row[n_lower:] for row in span]
        rank_proj = rank_rational(proj) if span else 0
        stacked = list(proj)
        for i, a in enumerate(monomials):
            if sum(a) == d:
                row = [0] * (len(monomials) - n_lower)
                row[i - n_lower] = Fraction(1)
                stacked.append(row)
        top_reduces = rank_rational(stacked) == rank_proj
        history.append(q)
        window = history[-(stabilisation_window + 1):]
        if (top_reduces and len(window) == stabilisation_window + 1
                and all(x == q for x in window)):
            return q
    raise NonIsolated(
        f"Jacobian quotient did not stabilise below degree {cap}")
