"""Independent rank over Q(hbar), for the tests only: fraction-free
(Bareiss) elimination in Q[hbar, 1/hbar] on ``HSeries`` entries.  The
engine never ranks over Q(hbar); the tests use this to check that its one
rank at hbar = 1 per slice is the rank over Q(hbar), on the slices of
delta + hbar*Delta that ``twisted_matrix`` builds."""

from fractions import Fraction

from qshift.coefficients import HSeries
from qshift.cohomology import bv_apply
from qshift.gca import Element, apply_koszul_delta


def _divexact(p, q):
    """Exact quotient p / q of hbar-Laurent polynomials (q nonzero).

    Long division from the top exponent.  When q divides p, every quotient
    exponent is at least min(p) - min(q); passing below that bound proves
    that q does not divide p.
    """
    top = max(q.terms)
    floor = min(p.terms, default=0) - min(q.terms)
    out = {}
    while p:
        lead = max(p.terms)
        k = lead - top
        if k < floor:
            raise ArithmeticError("inexact polynomial division")
        out[k] = Fraction(p.terms[lead], q.terms[top])
        p = p - q * HSeries.monomial(k, out[k])
    return HSeries(out)


def rank_exact_fraction_field(matrix):
    """Rank over Q(hbar) by fraction-free Bareiss elimination in
    Q[hbar, 1/hbar]; zero entries may be plain ``0``."""
    if not matrix or not matrix[0]:
        return 0
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = HSeries.const(1)
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for r in range(rank + 1, nrows):
            row = m[r]
            for c in range(ncols):
                if c != col:
                    row[c] = _divexact(prow[col] * row[c] - row[col] * prow[c],
                                       prev)
            row[col] = 0
        prev = prow[col]
        rank += 1
        if rank == nrows:
            break
    return rank


def twisted_matrix(X, basis):
    """delta + hbar*Delta on the keys of one slice, as rows of HSeries over
    the columns the images touch (plain 0 in empty cells)."""
    images = []
    for key in basis:
        mono = Element._from_store(X.m, {key: 1})
        images.append((apply_koszul_delta(X, mono)
                       + bv_apply(X, mono).scale(HSeries.monomial(1))).series())
    cols = {}
    for img in images:
        for key in img:
            cols.setdefault(key, len(cols))
    rows = []
    for img in images:
        row = [0] * len(cols)
        for key, c in img.items():
            row[cols[key]] = c
        rows.append(row)
    return rows
