"""Quantisations of the critical-locus algebra: Maurer-Cartan elements in
the second level of the order filtration, the canonical second-order BV
operator, the centre differential, the canonical tangent vector, the
dimension bookkeeping for the hbar-order filtrations, and the one
``Verdict`` that the checks of a quantisation answer.  The filtration
table is a dict, and ``nu_eigen_analysis`` answers its report payload.

A quantisation is stored once, as its hbar-series Delta = Sum_j Delta_j
hbar^(j-1): one operator whose hbar^(j-1) coefficient Delta_j is checked
against the membership constraint order(Delta_j) <= j when it is built.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .coefficients import _same_m, _setting, codec
from .cohomology import eta_subsets, iter_y_exponents
from .diffops import (Operator, _banded_images, _product_into,
                      op_commutator, op_order)
from .errors import ExponentOverflow, NotCertified, NotMaurerCartan
from .gca import CritLocus, koszul_operator


class Quantisation(Operator):
    """Delta = Sum_j Delta_j hbar^(j-1) as one operator, built from the
    hbar-free levels {j: Delta_j} (j >= 2, order(Delta_j) <= j).  A sum or
    product of quantisations is a plain Operator, never taken for one that
    was checked."""

    __slots__ = ()

    def __init__(self, m, levels=None):
        self.m = int(m)
        shift = codec(self.m).hbar_shift
        self.terms = {}
        for j, op in (levels or {}).items():
            j = int(j)
            if j < 2:
                raise ValueError("quantisation coefficients start at j = 2")
            _same_m(self.m, op)
            if op.is_zero():
                continue
            if op_order(op) > j:
                raise ValueError(
                    f"order {op_order(op)} coefficient at level {j} breaks "
                    f"the filtration bound")
            if op.hbar_exponents() - {0}:
                raise ValueError("coefficients must be hbar-free")
            self.terms.update((k + (j - 1 << shift), c)
                              for k, c in op.terms.items())

    def _like(self, store):
        return Operator._from_store(self.m, store)


class TangentElement:
    """A tangent vector at a quantisation, held as its epsilon-direction:
    one operator series in hbar."""

    __slots__ = ("eps",)

    def __init__(self, eps: Operator):
        self.eps = eps

    def eps_as_series(self) -> Operator:
        return self.eps


class Verdict:
    """The answer of a check that carries operators: ``check_compatibility``
    answers ExactCocycleEquality, CoboundaryWitness with its ``witness``, or
    Fails; ``is_self_dual`` answers Strict or Fails.  A Fails verdict holds
    the ``residual`` that the check could not remove."""

    EXACT = "ExactCocycleEquality"
    COBOUNDARY = "CoboundaryWitness"
    STRICT = "Strict"
    FAILS = "Fails"

    __slots__ = ("kind", "witness", "residual")

    def __init__(self, kind, witness=None, residual=None):
        self.kind = kind
        self.witness = witness
        self.residual = residual

    def ok(self):
        return self.kind != self.FAILS

    def __repr__(self):
        return f"Verdict({self.kind})"


def bv_quantisation(X: CritLocus) -> Quantisation:
    """The canonical second-order quantisation hbar * Sum_i d_y_i d_eta_i."""
    C = codec(X.m)
    return Quantisation._from_store(
        X.m, {dy + bit + C.hbar: 1 for dy, bit in zip(C.dy, C.deta_bits)})


def mc_residual(X: CritLocus, delta: Quantisation) -> Operator:
    """[delta_Koszul, Delta] + (1/2)[Delta, Delta]; zero iff Delta is a
    quantisation (square-zero for delta + Delta); (1/2)[Delta, Delta] is
    Delta_odd o Delta_odd, as pairs add (1 - (-1)^(|k1||k2|)) k1 o k2.
    Both products accumulate into one store."""
    C = codec(_same_m(X.m, delta))
    terms = delta.terms.items()
    odd = [(k, c) for k, c in terms if C.degree(k) & 1]
    acc = {}
    _product_into(acc, koszul_operator(X).terms.items(), terms, C, bracket=True)
    _product_into(acc, odd, odd, C)
    return Operator._from_store(delta.m, acc)


def sigma_tangent(delta: Quantisation) -> TangentElement:
    """Canonical tangent vector: epsilon part hbar^2 d(Delta)/d(hbar), which
    sends c hbar^e to e c hbar^(e+1)."""
    C = codec(delta.m)
    return TangentElement(Operator._from_store(delta.m, {
        k + C.hbar: (k >> C.hbar_shift) * c for k, c in delta.terms.items()
        if k >> C.hbar_shift}))


def centre_differential(X: CritLocus, delta: Quantisation,
                        u: Operator) -> Operator:
    """[delta_Koszul + Delta, u], the differential of the centre."""
    _same_m(X.m, delta, u)
    if not mc_residual(X, delta).is_zero():
        raise NotMaurerCartan("Delta does not satisfy the master equation")
    return op_commutator(koszul_operator(X) + delta, u)


# ---------------------------------------------------------------------------
# Operator windows and filtration dimension tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _odd_masks(m):
    """(|S|, eta_S, d_eta_S) for the subsets S of ``eta_subsets(m)``."""
    C = codec(m)
    return tuple((len(S), sum(C.eta_bits[i - 1] for i in S),
                  sum(C.deta_bits[i - 1] for i in S)) for S in eta_subsets(m))


@lru_cache(maxsize=256)
def _y_keys(m, cap):
    """The keys y^a of degree <= cap, lexicographic."""
    return tuple(sum(map(mul, codec(m).y, a)) for a in iter_y_exponents(m, cap))


def operator_keys_in_window(X: CritLocus, order_cap: int, ydeg_cap: int,
                            degree=None):
    """Operator monomial keys y^a eta_S d_y^b d_eta_T with derivative degree
    <= order_cap, |a| <= ydeg_cap and, if given, |T| - |S| = ``degree``: by
    T (``eta_subsets`` order), b (lex), S, a."""
    C = codec(X.m)
    _setting("order_cap", order_cap)
    _setting("ydeg_cap", ydeg_cap)
    masks, alist = _odd_masks(X.m), _y_keys(X.m, ydeg_cap)
    return [tb + s + a for nt, _, t in masks if nt <= order_cap
            for b in _y_keys(X.m, order_cap - nt)
            for tb in (t + (b << C.dy_to_y),)
            for ns, s, _ in masks if degree in (None, nt - ns)
            for a in alist]


def _order_keys(m, p):
    """The keys d_y^b d_eta_T eta_S of order exactly p and y-degree 0, in
    the order of the window of order cap p and y-degree cap 0: by T, b of
    |b| = p - |T| (lex, its last entry fixed by the rest), then S."""
    C = codec(m)
    masks = _odd_masks(m)
    return [t + sum(map(mul, C.dy, (*b, p - nt - sum(b)))) + s
            for nt, _, t in masks if nt <= p
            for b in iter_y_exponents(m - 1, p - nt) for _, s, _ in masks]


def _order_bound(kind, level, p, j):
    """Order cap of the filtration piece at hbar^(j-1); None means empty."""
    if kind == "Ftilde":
        bound = j if j >= p else -1
    elif kind == "G":
        bound = j - level if j >= p else -1
    else:  # convolution (G*Ftilde)^level
        bound = j if j >= level else 2 * j - level
    return bound if j >= 0 and bound >= 0 else None


def filtration_dims(kind: str, level: int, p: int, hbar_max: int,
                    X: CritLocus, ydeg_cap: int) -> dict:
    """The ``filtration`` report payload: the Q-dimension of a filtration
    piece at each cohomological degree -m..m and hbar exponent
    -1..hbar_max, within the window |a| <= ydeg_cap, in closed form.  The
    derivative parts (b, T) with eta set S of degree |T| - |S| and order o
    number C(m, |T|) C(m, |S|) C(o - |T| + m - 1, m - 1), which sum over
    o <= bound to C(bound - |T| + m, m), each with C(ydeg_cap + m, m) y^a.
    The piece is the ``level``-th of the decreasing filtration ``kind``:
    "Ftilde", "G" (hbar-adic) or their convolution "GconvF"; each integer
    setting is checked by ``_setting`` before any entry is computed."""
    if kind not in ("Ftilde", "G", "GconvF"):
        raise ValueError(f"unknown filtration kind {kind!r}")
    for name, value in (("level", level), ("p", p), ("hbar_max", hbar_max),
                        ("ydeg_cap", ydeg_cap)):
        _setting(name, value)
    m = X.m

    def dim(d, bound):
        return 0 if bound is None else comb(ydeg_cap + m, m) * sum(
            comb(m, t) * comb(m, t - d) * comb(bound - t + m, m)
            for t in range(max(d, 0), min(m, bound) + 1))

    bounds = [_order_bound(kind, level, p, e + 1)
              for e in range(-1, hbar_max + 1)]
    return {"dims": [{"degree": d, "hbar_exp": e, "dim": dim(d, bound)}
                     for d in range(-m, m + 1)
                     for e, bound in enumerate(bounds, -1)],
            "kind": kind, "level": level, "p": p}


# ---------------------------------------------------------------------------
# Obstruction eigenvalue analysis
# ---------------------------------------------------------------------------

def _canonical_nu_slots(X: CritLocus):
    """The slots of nu(omega, pi) for the canonical pair (``_nu_slots``).

    Refused with NotCertified if a slot's left factor L carries a d_y.
    Without one, y^a commutes with every L, so nu(y^a rho) = y^a nu(rho):
    the images of the y-degree-0 block fix those at every y-degree."""
    from .derham import _nu_slots, canonical_symplectic

    slots, _ = _nu_slots(canonical_symplectic(X), bv_quantisation(X))
    if any(k & codec(X.m).dy_block for _, left, _ in slots for k, _ in left):
        raise NotCertified("a left factor of nu carries d_y, so the "
                           "y-degree-0 block does not fix the others")
    return slots


def _nu_block(X: CritLocus, block, slots):
    """The images of nu(omega, pi) on the hbar-free symbol monomials
    ``block``, one store per key, in one banded call, from the canonical
    ``slots`` (``_canonical_nu_slots``)."""
    from .derham import _nu_apply

    lefts = [k for _, left, _ in slots for k, _ in left]
    rights = [k for _, _, right in slots for k, _ in right]
    return _banded_images(X.m, block, lambda rho: _nu_apply(slots, rho),
                          lefts, rights)


def nu_eigen_analysis(X: CritLocus, p: int, k: int, ydeg_cap: int) -> dict:
    """Spectrum of the derivation nu(omega, pi) on the arity-p symbol block,
    for the canonical pair, together with the shifted operator's
    invertibility on the block ("+ d/d(hbar^-1)" acts by the scalar 1-p-k).

    The answer is certified only for a scalar block, at every y-degree at
    once: on each arity-p key rho of y-degree 0, the terms of nu(rho) of
    arity >= p must be exactly lam0 rho hbar (lower arity is zero on gr_p),
    and ``_canonical_nu_slots`` carries this to every y^a rho.  Any other
    block is refused with NotCertified.  ``ydeg_cap`` only sizes
    ``block_dim``.  A p at which nu would push a d_y exponent of the block
    to 2^15 is refused with ExponentOverflow before the block is built.  The
    answer is the ``eigen`` report payload.
    """
    _setting("p", p)
    _setting("ydeg_cap", ydeg_cap)
    if k < 1:
        raise ValueError("need p >= 0 and k >= 1")
    C = codec(X.m)
    slots = _canonical_nu_slots(X)
    # d_y_i^p is in the block, and its product with a right factor adds
    # that factor's d_y_i exponent: refused here, before the block is built
    reach = max((r >> o & C.field for _, _, right in slots for r, _ in right
                 for o in C.dy_off), default=0)
    if p + reach >= C.limit:
        raise ExponentOverflow(
            f"p must be below {C.limit - reach}, not {p}: nu's right "
            f"factors raise a d_y exponent of the order-p block by {reach}, "
            f"and packed keys hold exponents below {C.limit}")
    block = _order_keys(X.m, p)
    for c, (key, image) in enumerate(zip(block, _nu_block(X, block, slots))):
        top = {t: v for t, v in image.items() if C.order(t) >= p}
        if c == 0:
            lam0 = top.get(key + C.hbar, 0)
        if top != ({key + C.hbar: lam0} if lam0 else {}):
            raise NotCertified(
                f"the block of nu is not a scalar (column {c} of "
                f"{len(block)}); only a scalar block is certified")
    shifted = lam0 + 1 - p - k
    return {"p": p, "k": k,
            "block_dim": comb(ydeg_cap + X.m, X.m) * len(block),
            "eigenvalues": [lam0], "combined_scalar": shifted,
            "invertible": shifted != 0, "diagonalisable": True}
