"""Exact scalar arithmetic: the one coefficient model, the packed monomial
keys, the hbar-Laurent boundary type, and the sparse rank/solve kernel
over Q, which eliminates fraction-free on integer rows.

A coefficient is canonical: a nonzero ``int``, or a ``fractions.Fraction``
whose denominator is greater than 1.  It is never a float, and an integral
Fraction is stored as its numerator, so integer data stays in ``int``
arithmetic until a non-integral value appears.  Elements, operators,
symbols and hbar-Laurent polynomials are one store type, :class:`_Store`:
a flat store of terms keyed by one ``int`` that packs the monomial and the
hbar exponent together (see :class:`Codec`), with one canonical
coefficient per key, and one sum, negative, scale, equality, hash and
printer.  ``_accumulate`` is the one add-and-drop-zero step behind every
such sum, and ``_canon`` admits a rational from outside.

An :class:`HSeries` is that store with no generators, m = 0, so its key
is the hbar exponent itself: a finite Laurent polynomial in the degree-0
dummy variable hbar, exact and never truncated.  It is the boundary type
for coefficients: constructor input, the per-monomial view of a store for
printing (``series()``), and reports; scaling by an HSeries is the Cauchy
product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import ExponentOverflow, QShiftError


def _canon(c):
    """The canonical form of an exact rational; 0 stays 0, floats are refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an exact rational")


def _div(a, b):
    """The exact quotient a / b of two rationals, canonical; an ``int`` when
    a and b are ints and b divides a."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _canon(Fraction(a, b))


def _content(values):
    """The rational c that makes ``values / c`` integers with gcd 1, the
    first of them positive: +-gcd(numerators) / lcm(denominators) of the
    nonzero canonical ``values``, an ``int`` when they are."""
    g = gcd(*[v.numerator for v in values])
    den = lcm(*[v.denominator for v in values])
    if values[0] < 0:
        g = -g
    return g if den == 1 else Fraction(g, den)


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


# ---------------------------------------------------------------------------
# Packed monomial keys
# ---------------------------------------------------------------------------

FIELD_BITS = 16


def _setting(name, value, packed=True):
    """The setting ``value``, if in range: the one check of an integer
    setting, flag or library argument.  Below 0 is refused with QShiftError,
    and a ``packed`` one (an exponent or a cap on one) from 2^15 on."""
    limit = 1 << FIELD_BITS - 1
    if value < 0:
        raise QShiftError(f"{name} must be >= 0, not {value}")
    if packed and value >= limit:
        raise ExponentOverflow(f"{name} must be below {limit}, not {value}")
    return value


def _same_m(m, *values):
    """The generator count ``m``, if each of ``values`` has it: the one
    check that the values a function combines agree on m, refused with
    ValueError otherwise."""
    for value in values:
        if value.m != m:
            raise ValueError("signature mismatch")
    return m


class Codec:
    """The packed keys of the monomials y^a eta_S d_y^b d_eta_T hbar^e in m
    generator pairs: one ``int`` per monomial and hbar exponent (the
    packed exponent vectors of Monagan and Pearce, 2007).

    From the low end, bit 2i - 2 is eta_i and bit 2i - 1 is d_eta_i: the
    odd part, whose layout does not depend on m.  Above it sit m fields of
    ``FIELD_BITS`` bits for a, then m for b, and above those the hbar
    exponent e, so ``key >> hbar_shift`` is e and a negative e needs no
    bias.  An element key is an operator key with b = 0 and T empty, and
    the unit monomial is 0.

    The y and d_y fields of a product of two monomials are the sums of
    theirs, so the even part of a product key is one integer addition.  The
    top bit of each field is a guard: every exponent stays below ``limit``,
    so a sum of two keys never carries out of a field, and a guard bit set
    in a sum is an overflow, refused by ``check`` with ExponentOverflow
    rather than wrapped.  Tuples ``(a, eta[, b, deta])`` appear only at the
    boundary (constructors, ``series()``, printing and reports), through
    ``encode`` and ``decode``.
    """

    __slots__ = ("m", "limit", "field", "odd", "eta", "deta", "eta_bits",
                 "deta_bits", "y", "dy", "y_off", "dy_off", "y_block",
                 "dy_block", "guard", "hbar_shift", "hbar", "mono",
                 "y_lows", "y_guards", "dy_lows", "dy_guards", "dy_to_y",
                 "shared")

    def __init__(self, m):
        w = FIELD_BITS
        self.m = m
        self.limit = 1 << (w - 1)
        self.field = (1 << w) - 1
        self.eta_bits = tuple(1 << 2 * i for i in range(m))
        self.deta_bits = tuple(2 << 2 * i for i in range(m))
        self.eta = sum(self.eta_bits)
        self.deta = sum(self.deta_bits)
        self.odd = self.eta | self.deta
        self.y_off = tuple(2 * m + i * w for i in range(m))
        self.dy_off = tuple(2 * m + (m + i) * w for i in range(m))
        self.y = tuple(1 << o for o in self.y_off)
        self.dy = tuple(1 << o for o in self.dy_off)
        self.y_block = sum(self.field << o for o in self.y_off)
        self.dy_block = sum(self.field << o for o in self.dy_off)
        self.y_guards = sum(self.limit << o for o in self.y_off)
        self.dy_guards = sum(self.limit << o for o in self.dy_off)
        self.guard = self.y_guards | self.dy_guards
        # a field x < limit is nonzero iff x + (limit - 1) sets its guard
        self.y_lows = sum((self.limit - 1) << o for o in self.y_off)
        self.dy_lows = sum((self.limit - 1) << o for o in self.dy_off)
        self.dy_to_y = m * w
        # a y-field guard bit -> (y offset, d_y offset, y_i + d_y_i units)
        self.shared = {self.limit << yo: (yo, do, (1 << yo) + (1 << do))
                       for yo, do in zip(self.y_off, self.dy_off)}
        self.hbar_shift = 2 * m + 2 * m * w
        self.hbar = 1 << self.hbar_shift
        self.mono = self.hbar - 1

    def overflow(self):
        raise ExponentOverflow(
            f"an exponent reached {self.limit}; packed monomial keys hold "
            f"exponents below {self.limit}")

    def check(self, key):
        """``key``, refused if a sum of keys overflowed a field."""
        if key & self.guard:
            self.overflow()
        return key

    def encode(self, a, eta=(), b=None, deta=(), e=0):
        """The key of y^a eta_S d_y^b d_eta_T hbar^e, for S = ``eta`` and
        T = ``deta`` strictly increasing index tuples in 1..m; b defaults
        to 0.  Out-of-range input is refused, never wrapped."""
        return (self._fields(self.y, a) + self._fields(self.dy, b)
                + self._odd(self.eta_bits, eta) + self._odd(self.deta_bits, deta)
                + (int(e) << self.hbar_shift))

    def _fields(self, units, exps):
        if exps is None:
            return 0
        if len(exps) != self.m:
            raise ValueError(f"exponent vector of length {len(exps)}, "
                             f"m = {self.m}")
        if not 0 <= min(exps) <= max(exps) < self.limit:
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps!r}")
            self.overflow()
        return sum(map(mul, units, exps))

    def _odd(self, bits, index):
        if not index:
            return 0
        if not (0 < index[0] and index[-1] <= self.m and all(
                x < z for x, z in zip(index, index[1:]))):
            raise ValueError(f"odd indices {index!r} are not strictly "
                             f"increasing in 1..{self.m}")
        return sum(bits[i - 1] for i in index)

    def decode(self, key):
        """``(a, eta, b, deta, e)`` of a key, as tuples and the int e."""
        field = self.field
        return (self.y_exponents(key), _indices(self.eta_bits, key),
                tuple([key >> o & field for o in self.dy_off]),
                _indices(self.deta_bits, key), key >> self.hbar_shift)

    def y_exponents(self, key):
        field = self.field
        return tuple([key >> o & field for o in self.y_off])

    def degree(self, key):
        """Cohomological degree -|eta| + |d_eta|; hbar has degree 0."""
        return (key & self.deta).bit_count() - (key & self.eta).bit_count()

    def order(self, key):
        """Total derivative degree |b| + |d_eta|."""
        n = (key & self.deta).bit_count()
        for o in self.dy_off:
            n += key >> o & self.field
        return n


def _indices(bits, key):
    """The 1-based indices of the ``bits`` set in ``key``."""
    return tuple([i for i, bit in enumerate(bits, 1) if key & bit])


def format_monomial(key):
    """The printed form of a boundary monomial ``(a, S)`` or ``(a, S, b, T)``:
    its y, eta, Dy and Deta factors joined by ``*``, or ``1``."""
    a, eta, b, deta = key if len(key) == 4 else (*key, (), ())
    parts = [f"y{i}" if n == 1 else f"y{i}^{n}" for i, n in enumerate(a, 1) if n]
    parts += [f"eta{i}" for i in eta]
    parts += [f"Dy{i}" if n == 1 else f"Dy{i}^{n}" for i, n in enumerate(b, 1) if n]
    parts += [f"Deta{i}" for i in deta]
    return "*".join(parts) or "1"


@lru_cache(maxsize=None)
def codec(m):
    """The one :class:`Codec` of m generator pairs."""
    return Codec(m)


@lru_cache(maxsize=None)
def _shuffle(s, u):
    """The Koszul sign of the product of the odd generators of two disjoint
    masks of one kind (eta bits, or d_eta bits) in canonical order: -1 to
    the number of pairs x in s, z in u with x above z."""
    n = 0
    while u:
        low = u & -u
        n += (s & ~(2 * low - 1)).bit_count()
        u ^= low
    return -1 if n & 1 else 1


# ---------------------------------------------------------------------------
# Flat term stores {packed key: coefficient}
# ---------------------------------------------------------------------------

def _flatten(terms, C):
    """The store of boundary input {monomial tuple: HSeries | int |
    Fraction}; a tuple is ``(a, eta)`` or ``(a, eta, b, deta)``."""
    store = {}
    for key, c in terms.items():
        key = C.encode(*key)
        if isinstance(c, HSeries):
            for e, v in c.terms.items():
                store[key + (e << C.hbar_shift)] = v
        elif c:
            store[key] = _canon(c)
    return store


class _Store:
    """m generators and a store {packed key: canonical coefficient}, with
    the arithmetic and the printer that every store type shares.  The
    constructor takes {monomial tuple: HSeries | int | Fraction}; a bare
    rational stands for that multiple of the unit monomial, the key 0.
    ``_arity`` is the length of the subclass's boundary tuples."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = int(m)
        self.terms = _flatten(terms, codec(self.m)) if terms else {}

    @classmethod
    def _from_store(cls, m, store):
        """Wrap a store that is already canonical and zero-free."""
        obj = cls.__new__(cls)
        obj.m = m
        obj.terms = store
        return obj

    def _like(self, store):
        """A value of this type and metadata holding ``store``."""
        return self._from_store(self.m, store)

    def _coerce(self, other):
        """``other`` as a store to combine with: a rational is that multiple
        of the unit.  A store must be of this one's kind, the subclass of
        _Store its type descends from (an Element mixes with an Operator),
        else TypeError, and have its m, else ValueError."""
        if isinstance(other, (int, Fraction)):
            other = _canon(other)
            return self._like({0: other} if other else {})
        if type(other).__mro__[-3:] != type(self).__mro__[-3:]:
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        _same_m(self.m, other)
        return other

    def _select(self, keep):
        """The terms whose key passes ``keep``."""
        return self._like({k: c for k, c in self.terms.items() if keep(k)})

    def degrees(self):
        C = codec(self.m)
        return {C.degree(k) for k in self.terms}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        """Equal terms, for what ``_coerce`` admits; all else is unequal."""
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """As the rational it equals, if any: 0 if empty, c if c times 1."""
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash((self.m, frozenset(self.terms.items())))

    def series(self):
        """{monomial tuple: HSeries}, the per-monomial view for printing."""
        C = codec(self.m)
        grouped = {}
        for k, c in self.terms.items():
            *key, e = C.decode(k)
            grouped.setdefault(tuple(key[:self._arity]), {})[e] = c
        return {key: HSeries(h) for key, h in grouped.items()}

    def __add__(self, other):
        """Two types of one kind sum to the kind: Element + Operator too."""
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        if type(other) is type(self):
            return self._like(out)
        return type(self).__mro__[-3]._from_store(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """The store times a rational, or times an HSeries: the Cauchy
        product in hbar."""
        return self._like(_scaled(self.terms, c, codec(self.m)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HSeries)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        """The terms in the order of their monomial tuples, coefficient
        first; a coefficient of several terms is parenthesised before a
        monomial."""
        view = self.series()
        parts = []
        for key in sorted(view):
            mono, cs = format_monomial(key), str(view[key])
            if cs == "1":
                parts.append(mono)
            elif mono == "1":
                parts.append(cs)
            else:
                parts.append(f"({cs})*{mono}" if "+" in cs else f"{cs}*{mono}")
        return " + ".join(parts) or "0"


class HSeries(_Store):
    """Laurent polynomial in hbar with exact rational coefficients: the
    store with m = 0, whose key is the hbar exponent."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.m = 0
        self.terms = ({int(k): _canon(v) for k, v in terms.items() if v}
                      if terms else {})

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero():
        return HSeries()

    @staticmethod
    def const(c):
        return HSeries({0: c})

    @staticmethod
    def monomial(exp, c=1):
        return HSeries({exp: c})

    def __str__(self):
        parts = []
        for k, v in sorted(self.terms.items()):
            if k == 0:
                parts.append(str(v))
            else:
                h = "h" if k == 1 else f"h^{k}"
                parts.append(h if v == 1 else f"{v}*{h}")
        return " + ".join(parts) or "0"


def hseries_mul(a, b):
    """The Cauchy product ``a * b``, which is ``a.scale(b)``.  The engine
    never calls it; it stays a function because the per-layer metrics of
    ``BENCHMARK.json`` name its span, and a traced perfbench pass refuses
    a metric that names no function of the program."""
    return a.scale(b)


def _scaled(store, c, C=None):
    """A store times c: an HSeries (which needs the store's codec C), or a
    rational."""
    out = {}
    if isinstance(c, HSeries):
        for k, v in store.items():
            for f, w in c.terms.items():
                _accumulate(out, k + (f << C.hbar_shift), v * w)
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
    """Fraction-free sparse Gaussian elimination of rows ``{col: int}``.

    Rows are taken shortest first, and consumed.  Each is reduced against
    the pivot rows found so far, keyed by their leading (smallest) column,
    until its leading column is new: against a pivot p with lead p_l, a row
    r with lead r_l becomes (p_l/g) r - (r_l/g) p for g = gcd(p_l, r_l).  A
    new pivot is divided by its content, with the sign of its lead, so it
    is primitive with a positive lead.  The rank is the number of pivots,
    and the set of pivot columns depends only on the row space.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                g = (1 if row[lead] > 0 else -1) * gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
                pivots[lead] = row
                break
            g = gcd(prow[lead], row[lead])
            pl, rl = prow[lead] // g, row[lead] // g
            if pl != 1:
                for c in row:
                    row[c] *= pl
            get = row.get
            for c, v in prow.items():
                # integer entries, so no canonical form; a zero sum is an
                # entry of row (rl v is never 0), and it is dropped
                s = get(c, 0) - rl * v
                if s:
                    row[c] = s
                else:
                    del row[c]
    return pivots


def _admit(rows, rhs=(), col=None):
    """Integer copies of sparse rows ``{col: rational}``: an explicit zero is
    dropped, and a row with a non-integral entry is scaled by the lcm of its
    denominators, which keeps its span.  ``rhs`` ``{row index: rational}``
    joins its rows at column ``col`` first.  The input is never mutated."""
    out = []
    for i, row in enumerate(rows):
        if i in rhs:
            row = {**row, col: rhs[i]}
        for v in row.values():
            if not v or type(v) is not int:
                row = {c: _canon(v) for c, v in row.items() if v}
                den = lcm(*[v.denominator for v in row.values()])
                if den != 1:
                    row = {c: (v * den).numerator for c, v in row.items()}
                break
        else:
            row = row.copy()
        out.append(row)
    return out


def rank_rational(rows):
    """Rank over Q of sparse rows ``{col: rational}``."""
    return len(_eliminate(_admit(rows)))


def solve_rational(rows, rhs, ncols):
    """Solve A x = b over Q by sparse elimination of the augmented system.

    ``rows`` are the sparse rows ``{col: rational}`` of A over the columns
    ``0 .. ncols - 1`` and ``rhs`` is b as ``{row index: rational}``; an
    index with no row is refused with ValueError.  Returns None when the
    right-hand-side column becomes a pivot (b is not in the column space);
    otherwise back-substitutes with every free variable 0 and returns x as
    ``{col: value}`` over its nonzero entries, which are canonical.

    Back-substitution stays in integers: x is held as numerators over one
    common denominator D, and a pivot's value is its integer remainder
    (b D less the row's known terms) over lead * D.  When the lead does not
    divide the remainder, D and the numerators found so far are multiplied
    by lead / gcd(remainder, lead), so D is always the lcm of the values'
    denominators.  Each nonzero entry becomes a canonical rational once,
    at the end.
    """
    for i in rhs:
        if not 0 <= i < len(rows):
            raise ValueError(f"right-hand side at row {i!r}, but the system "
                             f"has {len(rows)} rows")
    pivots = _eliminate(_admit(rows, rhs, ncols))
    if ncols in pivots:
        return None
    num, den = {}, 1
    for lead in sorted(pivots, reverse=True):
        # every other column of a pivot row is above its lead, and only
        # the leads below ncols are in num
        prow = pivots[lead]
        rest = prow.get(ncols, 0) * den - sum(
            v * num[c] for c, v in prow.items() if c in num)
        if rest:
            p = prow[lead]  # positive: pivot rows are primitive
            g = gcd(rest, p)
            if g != p:
                scale = p // g
                den *= scale
                for c in num:
                    num[c] *= scale
            num[lead] = rest // g
    return {c: v // den if not v % den else Fraction(v, den)
            for c, v in num.items()}
