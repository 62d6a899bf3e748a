"""Exact scalar arithmetic: rationals, hbar-Laurent polynomials, and the
sparse rank/solve kernel over Q.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
An :class:`HSeries` is a finite Laurent polynomial in the degree-0 dummy
variable hbar with Fraction coefficients; it is exact, never truncated.
``_accumulate`` is the one add-and-drop-zero step behind every sparse sum
of the package, whether its values are ``int``, ``Fraction`` or ``HSeries``.
"""

from __future__ import annotations

from fractions import Fraction


def _accumulate(store, key, c):
    """Add c into store[key]; a key whose sum is zero is removed."""
    prev = store.get(key)
    s = prev + c if prev is not None else c
    if s:
        store[key] = s
    else:
        store.pop(key, None)


class HSeries:
    """Laurent polynomial in hbar with exact rational coefficients; stored
    coefficients are never zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    clean[int(k)] = v
        self.coeffs = clean

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero():
        return HSeries({})

    @staticmethod
    def const(c):
        return HSeries({0: Fraction(c)})

    @staticmethod
    def monomial(exp, c=1):
        return HSeries({exp: Fraction(c)})

    # -- queries -----------------------------------------------------------
    @property
    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HSeries.const(other)
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __getitem__(self, exp):
        return self.coeffs.get(exp, Fraction(0))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HSeries.const(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _accumulate(out, k, v)
        return HSeries(out)

    __radd__ = __add__

    def __neg__(self):
        return HSeries({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HSeries.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return hseries_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return HSeries({})
        return HSeries({k: v * c for k, v in self.coeffs.items()})

    def shift(self, n):
        """Multiply by hbar**n."""
        return HSeries({k + n: v for k, v in self.coeffs.items()})

    def substitute_neg_hbar(self):
        """hbar -> -hbar."""
        return HSeries({k: (v if k % 2 == 0 else -v)
                        for k, v in self.coeffs.items()})

    def evaluate(self, point):
        """Specialise hbar to a nonzero rational."""
        point = Fraction(point)
        return sum((v * point ** k for k, v in self.coeffs.items()),
                   Fraction(0))

    def __repr__(self):
        return f"HSeries({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}*h" if v != 1 else "h")
            else:
                parts.append(f"{v}*h^{k}" if v != 1 else f"h^{k}")
        return " + ".join(parts)


def hseries_mul(a: HSeries, b: HSeries) -> HSeries:
    """Exact Cauchy product."""
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            _accumulate(out, ka + kb, va * vb)
    return HSeries(out)


def hbar_derivative_scaled(a: HSeries) -> HSeries:
    """hbar**2 * d/dhbar: the monomial c*hbar**k maps to k*c*hbar**(k+1)."""
    return HSeries({k + 1: k * v for k, v in a.coeffs.items() if k != 0})


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------

def _eliminate(rows):
    """Sparse Gaussian elimination over Q on rows ``{col: Fraction}``.

    Each row is reduced against the pivot rows found so far, keyed by their
    leading (smallest) column, until its leading column is new; it is then
    scaled to a unit pivot and kept.  Rows that reduce to zero vanish, so the
    rank is the number of pivots, and the set of pivot columns depends only
    on the row space.  Zero entries are never stored.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = 1 / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            f = -row[lead]
            for c, v in prow.items():
                _accumulate(row, c, f * v)
    return pivots


def _sparse(rows):
    """Dense rows of rationals as sparse rows holding only the nonzeros."""
    return [{c: Fraction(v) for c, v in enumerate(row) if v} for row in rows]


def rank_rational(rows):
    """Rank of a matrix of rationals (dense list of rows) by sparse elimination."""
    return len(_eliminate(_sparse(rows)))


def solve_rational(rows, rhs):
    """Solve A x = b over Q by sparse elimination of the augmented system.

    Returns None when the right-hand-side column becomes a pivot (b is not in
    the column space); otherwise back-substitutes with every free variable 0.
    """
    ncols = len(rows[0]) if rows else 0
    aug = _sparse(rows)
    for row, b in zip(aug, rhs):
        if b:
            row[ncols] = Fraction(b)
    pivots = _eliminate(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        sol[lead] = prow.get(ncols, Fraction(0)) - sum(
            v * sol[c] for c, v in prow.items() if lead < c < ncols)
    return sol
