"""Tensor-word model of the de Rham complex: Amitsur words with the
Alexander-Whitney cup product, the total differential, the evaluation map mu
sending a_0 (x) ... (x) a_r to a_0 Delta a_1 Delta ... Delta a_r, its
derivation nu, and the compatibility checker for pairs (omega, Delta), which
answers the one ``quantise.Verdict`` (named ``CompatVerdict`` here too).

A word a_0 (x) ... (x) a_r is stored as a tuple of packed element-monomial
keys with a canonical coefficient and a separate hbar exponent; the
interleaved reading a_0 . e . a_1 . e ... e . a_r with an odd degree-1 slot
symbol e makes the differential a plain graded derivation (element factors
map to delta(a) + e.a - (-1)^deg(a) a.e, slot symbols map to e.e) and makes
mu the substitution homomorphism e -> Delta.
"""

from __future__ import annotations

from math import lcm

from .coefficients import (_accumulate, _canon, _content, _div, _same_m,
                           _setting, _Store, codec, solve_rational)
from .diffops import Operator, _banded_images, _product_into, op_commutator
from .errors import NotCertified, NotMaurerCartan
from .gca import CritLocus, Element
from .quantise import (Quantisation, Verdict, koszul_operator, mc_residual,
                       operator_keys_in_window, sigma_tangent)


class DRWord(_Store):
    """Formal rational combination of (hbar_exp, tensor word) terms: a
    store {(hbar_exp, word): canonical coefficient}, with the arithmetic of
    :class:`_Store` and a Hodge weight, the least weight of its summands."""

    __slots__ = ("hodge_weight",)

    def __init__(self, m, terms=None, hodge_weight=0):
        """``terms`` is {(hbar_exp, word): rational} with the factors of a
        word given as element tuples ``(a, eta)``."""
        self.m = int(m)
        C = codec(self.m)
        self.terms = {(e, tuple(C.encode(*k) for k in ws)): _canon(c)
                      for (e, ws), c in terms.items() if c} if terms else {}
        self.hodge_weight = int(hodge_weight)

    @classmethod
    def _from_store(cls, m, store, hodge_weight):
        """Wrap a store that is already canonical and zero-free."""
        w = super()._from_store(m, store)
        w.hodge_weight = hodge_weight
        return w

    def _like(self, store):
        return self._from_store(self.m, store, self.hodge_weight)

    def _coerce(self, other):
        """A word key is a tuple, so no rational stands for a word."""
        if not isinstance(other, DRWord):
            raise TypeError(f"cannot combine DRWord with {type(other).__name__}")
        return super()._coerce(other)

    @staticmethod
    def zero(m, hodge_weight=0):
        return DRWord(m, {}, hodge_weight)

    def __add__(self, other):
        """The sum has the least weight of its nonzero summands; a zero
        summand takes the other's weight."""
        out = super().__add__(other)
        if not self.terms or (other.terms
                              and other.hodge_weight < self.hodge_weight):
            out.hodge_weight = other.hodge_weight
        return out

    def __repr__(self):
        return f"DRWord({len(self.terms)} terms, F^{self.hodge_weight})"

    __str__ = __repr__


def dr_of(a: Element) -> DRWord:
    """Length-1 word (a)."""
    C = codec(a.m)
    return DRWord._from_store(a.m, {(k >> C.hbar_shift, (k & C.mono,)): q
                                    for k, q in a.terms.items()}, 0)


def dr_d(a: Element) -> DRWord:
    """The 1-form word of a:  1 (x) a  -  (-1)^deg(a) a (x) 1."""
    C = codec(a.m)
    out = {}
    for k, q in a.terms.items():
        e, key = k >> C.hbar_shift, k & C.mono
        sign = -1 if C.degree(key) % 2 else 1
        _accumulate(out, (e, (0, key)), q)
        _accumulate(out, (e, (key, 0)), -sign * q)
    return DRWord._from_store(a.m, out, 1)


def cup(w1: DRWord, w2: DRWord) -> DRWord:
    """Alexander-Whitney merge: the adjacent factors multiply in O_X, by
    the product kernel."""
    _same_m(w1.m, w2)
    C = codec(w1.m)
    out = {}
    for (e1, ws1), c1 in w1.terms.items():
        for (e2, ws2), c2 in w2.terms.items():
            for mid, c in _times(((ws1[-1], c1),), ((ws2[0], c2),), C):
                _accumulate(out, (e1 + e2, ws1[:-1] + (mid,) + ws2[1:]), c)
    return DRWord._from_store(w1.m, out, w1.hodge_weight + w2.hodge_weight)


def dr_total_d(X: CritLocus, w: DRWord) -> DRWord:
    """Total differential: signed unit insertions plus the componentwise
    Koszul differential, as one graded derivation over the interleaved
    factors (slot symbols have degree +1).  Right of a_i, its a_i.e term,
    -(-1)^(p + d) for p the degree left of a_i and d its own, cancels the
    next slot's e.e term, so each gap takes one unit, e.a_(i+1) at
    -(-1)^(p + d), as does the end; the unit before a_0 has sign +1."""
    m = _same_m(X.m, w)
    C = codec(m)
    out, images = {}, {}  # images: [K, a] for each distinct factor a with eta
    K = koszul_operator(X).terms.items()
    for (e, ws), c in w.terms.items():
        _accumulate(out, (e, (0,) + ws), c)
        prefix = 0  # total degree of the interleaved factors to the left
        for i, mono in enumerate(ws):
            # delta part on this factor, 0 on one without eta (the unit too)
            if mono & C.eta and mono not in images:
                _product_into(images.setdefault(mono, {}), K, ((mono, 1),), C,
                              bracket=True)
            psign = -1 if prefix % 2 else 1
            for ikey, ic in images.get(mono, {}).items():
                _accumulate(out, (e, ws[:i] + (ikey,) + ws[i + 1:]),
                            psign * c * ic)
            prefix += C.degree(mono)
            _accumulate(out, (e, ws[:i + 1] + (0,) + ws[i + 1:]),
                        c if prefix % 2 else -c)
            prefix += 1  # the slot symbol after a_i
    return DRWord._from_store(m, out, w.hodge_weight)


def canonical_symplectic(X: CritLocus) -> DRWord:
    """Sum_i dy_i cup d(eta_i), the canonical weight-2 structure."""
    m = X.m
    out = DRWord.zero(m, 2)
    for i in range(1, m + 1):
        out = out + cup(dr_d(Element.y(m, i)), dr_d(Element.eta(m, i)))
    return DRWord._from_store(m, out.terms, 2)


def _times(left, right, C):
    """The items of L o R, for the items of L and R."""
    acc = {}
    _product_into(acc, left, right, C)
    return list(acc.items())


def _horner(C, words, blocks, slots=None, left=None, prefix=0, left_d=None,
            out=None):
    """The store of Sum c hbar^e a_0 Delta a_1 ... Delta a_r over ``words``,
    (factors, e, c) triples, by Horner's rule on their prefix trie: per
    first factor a, a o (the ended words' Sum c hbar^e) + (a o Delta) o (the
    tails' sum), so each node with tails takes one product, and c hbar^e is
    applied at the leaf.  An element key a is the key of its multiplication
    operator, and ended is a sum of scalars, so a o ended is a key addition.
    ``blocks`` maps a factor to its block's items, the unit 0 to Delta's;
    it lives for one check (``check_chain_identity``) or evaluation and
    gains a factor's block, one product of a alone with Delta, on first use.
    With a dict ``out`` the terms are added into it.

    With a dict ``slots`` it also gathers nu's rho-free factors: per proper
    prefix q, its Koszul exponent (degrees of q's factors plus its length
    - 1), L_q = a_0 Delta ... a_q, built from the parent's L Delta
    (``left_d``; a_0's block under the root), and R_q, the sum of the tails
    after q with the words' c hbar^e.  For R_q = c R^, R^ the primitive
    integer form of R_q (gcd 1, positive on its least key; ``_content``),
    slots[(exponent parity, R^)] sums c L_q.
    """
    groups = {}
    for ws, e, c in words:
        groups.setdefault(ws[0], []).append((ws[1:], e, c))
    out, D = {} if out is None else out, blocks[0]
    for a, tails in groups.items():
        mult = ((a, 1),)
        for ws, e, c in tails:
            if not ws:
                _accumulate(out, a + (e << C.hbar_shift), c)
        rest = [t for t in tails if t[0]]
        if rest:
            if a not in blocks:
                blocks[a] = _times(mult, D, C)
            if slots is None:
                right = _horner(C, rest, blocks).items()
            else:
                if left is None:
                    la, la_d = mult, blocks[a]
                else:
                    if left_d is None:
                        left_d = _times(left, D, C)
                    la = left_d if a == 0 else _times(left_d, mult, C)
                    la_d = None
                deg = prefix + C.degree(a)
                right = sorted(_horner(C, rest, blocks, slots, la, deg + 1,
                                       la_d).items())
                if la and right:
                    c = _content([v for _, v in right])
                    hat = tuple((k, _div(v, c)) for k, v in right)
                    merged = slots.setdefault((deg & 1, hat), {})
                    for k, v in la:
                        _accumulate(merged, k, c * v)
            _product_into(out, blocks[a], right, C)
    return out


def _words(w: DRWord):
    return [(ws, e, c) for (e, ws), c in w.terms.items()]


def mu(w: DRWord, delta: Quantisation, X: CritLocus) -> Operator:
    """a_0 (x) ... (x) a_r evaluates to a_0 Delta a_1 Delta ... Delta a_r."""
    m = _same_m(X.m, w, delta)
    blocks = {0: list(delta.terms.items())}
    return Operator._from_store(m, _horner(codec(m), _words(w), blocks))


def _nu_slots(w: DRWord, delta: Quantisation, blocks=None):
    """The rho-free factors of nu as (parity, L, R) slots, one per Koszul
    exponent parity and right factor up to a scalar, L the sum of the scaled
    left factors that share them (see ``_horner``) and never zero, and
    mu(w), which the same traversal evaluates.  ``blocks`` is a block table
    of Delta to fill and share, else a new one."""
    slots = {}
    if blocks is None:
        blocks = {0: list(delta.terms.items())}
    store = _horner(codec(w.m), _words(w), blocks, slots)
    return ([(parity, list(left.items()), right)
             for (parity, right), left in slots.items() if left],
            Operator._from_store(w.m, store))


def _nu_apply(slots, rho: Operator) -> Operator:
    """nu(rho) by distributivity: the sum over slots and degree parts rho_d
    of (-1)^((d - 1) * parity) L o rho_d o R.  An even parity takes rho, an
    odd one rho with its even-degree part negated: two products a slot."""
    C = codec(rho.m)
    plain = list(rho.terms.items())
    twisted = [(k, c if C.degree(k) & 1 else -c) for k, c in plain]
    out = {}
    for parity, left, right in slots:
        _product_into(out, _times(left, twisted if parity else plain, C),
                      right, C)
    return Operator._from_store(rho.m, out)


def nu(w: DRWord, delta: Quantisation, rho: Operator, X: CritLocus) -> Operator:
    """The mu-derivation substituting rho for one Delta slot, with the
    Koszul sign (-1)^((deg rho - 1) * prefix degree) per slot."""
    _same_m(X.m, w, delta, rho)
    if rho.is_zero():
        return Operator.zero(w.m)
    return _nu_apply(_nu_slots(w, delta)[0], rho)


def check_chain_identity(w: DRWord, delta: Quantisation, X: CritLocus) -> Operator:
    """Residual of  delta_Delta mu(w) = mu(Dw) + nu(w, Delta, residual(Delta));
    identically zero for every word and every Delta, Maurer-Cartan or not.
    mu(w) comes out of the traversal that builds nu's slots, so it is
    evaluated once, and one block table serves it and mu(Dw).  The residual
    is one store: nu(w; -kappa), then [delta_Koszul, mu(w)], [Delta, mu(w)]
    and mu(Dw) with its words' scalars negated are added into it."""
    C = codec(_same_m(X.m, w, delta))
    kappa = mc_residual(X, delta)
    blocks = {0: list(delta.terms.items())}
    if kappa.is_zero():
        acc, mu_w = {}, _horner(C, _words(w), blocks)
    else:
        slots, mu_w = _nu_slots(w, delta, blocks)
        acc, mu_w = _nu_apply(slots, -kappa).terms, mu_w.terms
    for op in (koszul_operator(X), delta):
        _product_into(acc, op.terms.items(), mu_w.items(), C, bracket=True)
    _horner(C, [(ws, e, -c) for ws, e, c in _words(dr_total_d(X, w))],
            blocks, out=acc)
    return Operator._from_store(w.m, acc)


class SearchWindow:
    """Finite (order, y-degree, hbar) box for coboundary searches; the hbar
    exponents run from 0 to hbar_max, which, as hbar is not a packed field,
    has no upper bound."""

    __slots__ = ("order_cap", "ydeg_cap", "hbar_max")

    def __init__(self, order_cap, ydeg_cap, hbar_max):
        self.order_cap = _setting("order_cap", order_cap)
        self.ydeg_cap = _setting("ydeg_cap", ydeg_cap)
        self.hbar_max = _setting("hbar_max", hbar_max, packed=False)

    def as_dict(self):
        return {"order_cap": self.order_cap, "ydeg_cap": self.ydeg_cap,
                "hbar_min": 0, "hbar_max": self.hbar_max}


CompatVerdict = Verdict  # the name that callers of check_compatibility use


def _source_lookup(total: Operator, candidates, n):
    """The sources of a row key k: a superset of the (i, e), 0 <= e < n,
    with k - e hbar a key of [total, candidates[i]].  A key of t o u or
    u o t, t a term of ``total``, is even(t) + even(u) less a Leibniz step
    Sum_i j_i (y_i + d_y_i), 0 <= j_i <= max(y_i(t), d_y_i(t)), plus u's
    odd bits off t's variables (``_product_into``); a negative field sets a
    guard bit, which no candidate carries.  So from k a probe even(t) - step
    names the candidates of even part even(k) - probe - e hbar whose odd
    bits agree with k's off t's variables, one mask test per candidate."""
    C = codec(total.m)
    odd, shift, probes, index = C.odd, C.hbar_shift, set(), {}
    for t in total.terms:
        steps = [0]
        for yo, do, unit in C.shared.values():
            top = max(t >> yo & C.field, t >> do & C.field)
            steps = [s + j * unit for s in steps for j in range(top + 1)]
        outside = odd ^ 3 * ((t | t >> 1) & C.eta)  # off t's variables
        probes.update(((t & ~odd) - s, outside) for s in steps)
    for i, u in enumerate(candidates):
        index.setdefault(u & ~odd, []).append(i)

    def sources(k):
        even = k & ~odd
        return {(i, e) for offset, outside in probes
                if 0 <= (e := (even - offset) >> shift) < n
                for i in index.get(even - offset - (e << shift), ())
                if not (candidates[i] ^ k) & outside}
    return sources


def check_compatibility(omega: DRWord, delta: Quantisation, X: CritLocus,
                        window: SearchWindow) -> Verdict:
    """Compare mu(omega, Delta) with the canonical tangent hbar^2 dDelta/dhbar;
    on strict inequality, search the window for a coboundary witness.  The
    Verdict is ExactCocycleEquality, CoboundaryWitness with the witness, or
    Fails with the residual.

    The unknowns are the window's monomials hbar^e u one degree below the
    residual's; hbar is central, so the column of hbar^e u is [delta +
    Delta, u] shifted by e.  Only b's component of the row-column graph is
    assembled, wave by wave: each distinct row names its sources once
    (``_source_lookup``), and the new ones' images come from one banded
    call.  Elimination never mixes components, one with b = 0 is solved by
    0, and the pivot columns depend only on the row space, so the rows go
    to the solver as reached and the verdict and witness are the whole
    system's.  A witness u is reported only if [delta + Delta, D u] = D r,
    for D the lcm of u's denominators: its image is the residual, in
    integer products.
    """
    _same_m(X.m, omega, delta)
    if not mc_residual(X, delta).is_zero():
        raise NotMaurerCartan("compatibility needs a Maurer-Cartan Delta")
    r = mu(omega, delta, X) - sigma_tangent(delta).eps_as_series()
    if r.is_zero():
        return Verdict(Verdict.EXACT)
    candidates = [k for d in sorted({d - 1 for d in r.degrees()})
                  for k in operator_keys_in_window(
                      X, window.order_cap, window.ydeg_cap, degree=d)]
    n, hs = window.hbar_max + 1, codec(X.m).hbar_shift
    total = koszul_operator(X) + delta
    sources = _source_lookup(total, candidates, n)
    # row k is {i n + e: q} for q at k - e hbar in image i; r's rows first
    images, reached, todo, seen = {}, {}, list(r.terms), set()
    while todo:
        pending = {k: sources(k) for k in dict.fromkeys(todo)
                   if k not in reached}
        new = {i for src in pending.values() for i, _ in src} - images.keys()
        images.update(zip(new, new and _banded_images(
            X.m, [candidates[i] for i in new],
            lambda u: op_commutator(total, u), total.terms)))
        todo = []
        for k, src in pending.items():
            row = reached[k] = {i * n + e: images[i][k - (e << hs)]
                                for i, e in src if k - (e << hs) in images[i]}
            for col in row.keys() - seen:
                seen.add(col)
                todo += [key + (col % n << hs) for key in images[col // n]]
    sol = solve_rational(list(reached.values()),
                         dict(enumerate(r.terms.values())), len(candidates) * n)
    if sol is None:
        return Verdict(Verdict.FAILS, residual=r)
    witness = Operator._from_store(X.m, {
        candidates[c // n] + (c % n << hs): v for c, v in sorted(sol.items())})
    den = lcm(*[v.denominator for v in sol.values()])
    scaled = Operator._from_store(X.m, {k: v.numerator * (den // v.denominator)
                                        for k, v in witness.terms.items()})
    if op_commutator(total, scaled) != r.scale(den):
        raise NotCertified("the witness does not reproduce the residual")
    return Verdict(Verdict.COBOUNDARY, witness=witness)
