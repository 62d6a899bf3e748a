"""Exact scalar arithmetic: the one coefficient model, the hbar-Laurent
boundary type, and the sparse rank/solve kernel over Q.

A coefficient is canonical: a nonzero ``int``, or a ``fractions.Fraction``
whose denominator is greater than 1.  It is never a float, and an integral
Fraction is stored as its numerator, so integer data stays in ``int``
arithmetic until a non-integral value appears.  Elements, operators,
symbols and de Rham words all keep one flat store of terms, keyed by the
monomial and the hbar exponent together, with one canonical coefficient
per key.  ``_accumulate`` is the one add-and-drop-zero step behind every
such sum, and ``_canon`` admits a rational from outside.

An :class:`HSeries` is a finite Laurent polynomial in the degree-0 dummy
variable hbar with canonical coefficients; it is exact, never truncated.
It is the boundary type only: constructor input, the per-monomial view of
a store for printing (``series()``), and reports.
"""

from __future__ import annotations

from fractions import Fraction


def _canon(c):
    """The canonical form of an exact rational; 0 stays 0, floats are refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an exact rational")


def _div(a, b):
    """The exact quotient a / b of two rationals, canonical."""
    return _canon(Fraction(a, b))


def _accumulate(store, key, c):
    """Add c into store[key]; a key whose sum is zero is removed, and an
    integral Fraction is stored as its numerator."""
    prev = store.get(key)
    s = prev + c if prev is not None else c
    if not s:
        store.pop(key, None)
    elif type(s) is Fraction and s.denominator == 1:
        store[key] = s.numerator
    else:
        store[key] = s


class HSeries:
    """Laurent polynomial in hbar with exact rational coefficients; stored
    coefficients are canonical, so never zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = ({int(k): _canon(v) for k, v in coeffs.items() if v}
                       if coeffs else {})

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero():
        return HSeries({})

    @staticmethod
    def const(c):
        return HSeries({0: c})

    @staticmethod
    def monomial(exp, c=1):
        return HSeries({exp: c})

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
        return self.coeffs.get(exp, 0)

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
        c = _canon(c)
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
# Flat term stores {(monomial key, hbar exponent): coefficient}
# ---------------------------------------------------------------------------

def _flatten(terms):
    """The store of boundary input {monomial key: HSeries | int | Fraction}."""
    store = {}
    for key, c in terms.items():
        if isinstance(c, HSeries):
            for e, v in c.coeffs.items():
                store[(key, e)] = v
        elif c:
            store[(key, 0)] = _canon(c)
    return store


def _hbar_items(store):
    """The terms of a store grouped once per monomial key, as
    [(key, [(hbar exponent, coefficient), ...])]."""
    grouped = {}
    for (key, e), c in store.items():
        grouped.setdefault(key, []).append((e, c))
    return list(grouped.items())


def _add_terms(acc, key, h1, h2, n=1):
    """Accumulate n * h1 * h2 at ``key`` into the store ``acc``; h1 and h2
    are (hbar exponent, coefficient) items."""
    for e1, v1 in h1:
        v1 *= n
        for e2, v2 in h2:
            _accumulate(acc, (key, e1 + e2), v1 * v2)


class _Store:
    """m generators and a store {(monomial key, hbar exponent): canonical
    coefficient}, with the arithmetic that elements and operators share.
    The constructor takes {monomial key: HSeries | int | Fraction}; a bare
    rational stands for that multiple of the unit monomial ``_unit()``."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = int(m)
        self.terms = _flatten(terms) if terms else {}

    @classmethod
    def _from_store(cls, m, store):
        """Wrap a store that is already canonical and zero-free."""
        obj = cls.__new__(cls)
        obj.m = m
        obj.terms = store
        return obj

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)(self.m, {self._unit(): other})
        return other

    def _select(self, keep):
        """The terms whose monomial key passes ``keep``."""
        return self._from_store(self.m, {k: c for k, c in self.terms.items()
                                         if keep(k[0])})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def series(self):
        """{monomial key: HSeries}, the per-monomial view for printing."""
        return {key: HSeries(dict(h)) for key, h in _hbar_items(self.terms)}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in self._coerce(other).terms.items():
            _accumulate(out, k, c)
        return self._from_store(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return self._from_store(self.m, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return self._from_store(self.m, _scaled(self.terms, c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HSeries)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__


def _scaled(store, c):
    """A store times c: an HSeries, or a rational."""
    out = {}
    if isinstance(c, HSeries):
        for (key, e), v in store.items():
            for f, w in c.coeffs.items():
                _accumulate(out, (key, e + f), v * w)
        return out
    c = _canon(c)
    if c:
        for k, v in store.items():
            _accumulate(out, k, v * c)
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------

def _eliminate(rows):
    """Sparse Gaussian elimination over Q on rows ``{col: rational}``.

    Each row is reduced against the pivot rows found so far, keyed by their
    leading (smallest) column, until its leading column is new; it is then
    divided exactly by its leading entry to a unit pivot and kept.  Rows
    that reduce to zero vanish, so the rank is the number of pivots, and the
    set of pivot columns depends only on the row space.  Zero entries are
    never stored, and every entry is canonical.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                lv = row[lead]
                pivots[lead] = {c: _div(v, lv) for c, v in row.items()}
                break
            f = -row[lead]
            for c, v in prow.items():
                _accumulate(row, c, f * v)
    return pivots


def _admit(rows):
    """Copies of sparse rows ``{col: rational}`` with canonical entries; an
    explicit zero is dropped, so the input rows are never mutated."""
    return [{c: _canon(v) for c, v in row.items() if v} for row in rows]


def rank_rational(rows):
    """Rank over Q of sparse rows ``{col: rational}``."""
    return len(_eliminate(_admit(rows)))


def solve_rational(rows, rhs, ncols):
    """Solve A x = b over Q by sparse elimination of the augmented system.

    ``rows`` are the sparse rows ``{col: rational}`` of A over the columns
    ``0 .. ncols - 1`` and ``rhs`` is b as ``{row index: rational}``.
    Returns None when the right-hand-side column becomes a pivot (b is not
    in the column space); otherwise back-substitutes with every free
    variable 0.  The entries of the solution are canonical.
    """
    aug = _admit(rows)
    for i, b in rhs.items():
        if b:
            aug[i][ncols] = _canon(b)
    pivots = _eliminate(aug)
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        sol[lead] = _canon(prow.get(ncols, 0) - sum(
            v * sol[c] for c, v in prow.items() if lead < c < ncols))
    return sol
