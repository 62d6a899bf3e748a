"""Transpose anti-automorphism on differential operators, the star
involution Delta -> -Delta^t(-hbar), and self-duality verdicts.

The transpose is realised in the constant-volume trivialisation, so the
divergence correction vanishes and the whole map is determined by one sign
per derivative generator.  Those signs are found by a brute-force search
over the finite set of assignments rather than fixed by hand, so the
implementation cannot silently disagree with the (-1)^p symbol rule.
"""

from __future__ import annotations

import itertools
import random

from .coefficients import _accumulate, _hbar_items
from .diffops import (Operator, _fold, _gen_sequence, key_order, op_compose,
                      op_order, op_unit_key)
from .errors import NoConsistentProfile
from .gca import CritLocus, Element
from .quantise import Quantisation


class SignProfile:
    """Signs of the transpose on generators; multiplications stay fixed."""

    __slots__ = ("gen_signs",)

    def __init__(self, d_y_sign, d_eta_sign):
        self.gen_signs = {"mult_y": 1, "mult_eta": 1,
                          "d_y": int(d_y_sign), "d_eta": int(d_eta_sign)}

    def __repr__(self):
        return (f"SignProfile(d_y={self.gen_signs['d_y']}, "
                f"d_eta={self.gen_signs['d_eta']})")


def transpose(D: Operator, profile: SignProfile) -> Operator:
    """Anti-automorphism: reverse each monomial with its Koszul sign, apply
    the generator signs, and renormal-order."""
    m = D.m
    sy = profile.gen_signs["d_y"]
    se = profile.gen_signs["d_eta"]
    out = {}
    for key, h in _hbar_items(D.terms):
        a, eta, b, deta = key
        odd = len(eta) + len(deta)
        sign = sy ** (sum(b) % 2) * se ** (len(deta) % 2)
        if (odd * (odd - 1) // 2) % 2:
            sign = -sign
        state = _fold(_gen_sequence(key, m)[::-1], {op_unit_key(m): 1}, m)
        for k, q in state.items():
            for e, c in h:
                _accumulate(out, (k, e), sign * q * c)
    return Operator._from_store(m, out)


def _random_test_operator(m, rng, max_order=2, max_ydeg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = tuple(rng.randint(0, max_ydeg) for _ in range(m))
        eta = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        order = rng.randint(0, max_order)
        t_size = rng.randint(0, min(order, m))
        deta = tuple(sorted(rng.sample(range(1, m + 1), t_size)))
        rem = order - len(deta)
        b = [0] * m
        for _ in range(rem):
            b[rng.randrange(m)] += 1
        terms[(a, eta, tuple(b), deta)] = rng.randint(1, 5)
    return Operator(m, terms)


def solve_sign_profile(X: CritLocus) -> SignProfile:
    """Search the sign assignments on derivative generators for the unique
    profile that is an involution, fixes multiplications, and induces
    (-1)^p on arity-p symbols."""
    m = X.m
    rng = random.Random(7)
    samples = [_random_test_operator(m, rng) for _ in range(6)]
    samples.append(Operator.d_y(m, 1))
    samples.append(Operator.d_eta(m, 1))
    samples.append(op_compose(Operator.d_y(m, 1), Operator.d_eta(m, 1)))
    samples.append(op_compose(Operator.d_y(m, 1), Operator.mult(Element.y(m, 1))))
    samples.append(op_compose(Operator.d_eta(m, 1), Operator.mult(Element.eta(m, 1))))
    mults = [Operator.mult(Element.y(m, 1)),
             Operator.mult(Element.eta(m, 1)),
             Operator.mult(Element.y(m, 1) ** 2 + Element.eta(m, 1))]
    winners = []
    for sy, se in itertools.product((1, -1), repeat=2):
        profile = SignProfile(sy, se)
        ok = all(transpose(M, profile) == M for M in mults)
        if ok:
            for D in samples:
                if transpose(transpose(D, profile), profile) != D:
                    ok = False
                    break
                if not D.is_zero():
                    p = op_order(D)
                    top = D.order_part(p)
                    expected = top.scale((-1) ** p)
                    if transpose(D, profile).order_part(p) != expected:
                        ok = False
                        break
        if ok:
            winners.append(profile)
    if len(winners) != 1:
        raise NoConsistentProfile(
            f"{len(winners)} consistent sign profiles found; expected exactly one")
    return winners[0]


def star(delta: Quantisation, profile: SignProfile) -> Quantisation:
    """Coefficient-wise (-1)^j transpose: Delta*(hbar) = -Delta^t(-hbar)."""
    coeffs = {}
    for j, op in delta.coeffs.items():
        sign = 1 if j % 2 == 0 else -1
        coeffs[j] = transpose(op, profile).scale(sign)
    return Quantisation(delta.m, coeffs)


def star_operator_series(op: Operator, profile: SignProfile) -> Operator:
    """-transpose with hbar -> -hbar, for raw operator series."""
    flipped = Operator._from_store(op.m, {(k, e): -c if e % 2 else c
                                          for (k, e), c in op.terms.items()})
    return transpose(flipped, profile).scale(-1)


class SelfDualVerdict:
    STRICT = "Strict"
    FAILS = "Fails"

    __slots__ = ("kind", "residual")

    def __init__(self, kind, residual=None):
        self.kind = kind
        self.residual = residual

    def ok(self):
        return self.kind == self.STRICT

    def __repr__(self):
        return f"SelfDualVerdict({self.kind})"


def is_self_dual(delta: Quantisation, profile: SignProfile) -> SelfDualVerdict:
    """Strict iff star(Delta) = Delta exactly; otherwise the difference."""
    starred = star(delta, profile)
    if starred == delta:
        return SelfDualVerdict(SelfDualVerdict.STRICT)
    residual = starred.as_operator_series() - delta.as_operator_series()
    return SelfDualVerdict(SelfDualVerdict.FAILS, residual)


def star_fixed_slot_dimension(X: CritLocus, profile: SignProfile, j: int,
                              k: int, keys) -> tuple[int, int]:
    """Dimensions (fixed, total) of the star action on the gr_G^k slot at
    hbar^(j-1): basis symbols of arity j-k, star acting through the slot."""
    arity = j - k
    basis = [key for key in keys if key_order(key) == arity]
    fixed = 0
    sign = 1 if j % 2 == 0 else -1
    for key in basis:
        op = Operator(X.m, {key: 1})
        image = transpose(op, profile).scale(sign).order_part(arity)
        if image == op:
            fixed += 1
        elif image == op.scale(-1):
            pass
        else:
            # star must act by a scalar on each symbol monomial
            raise NoConsistentProfile("star does not act diagonally on symbols")
    return fixed, len(basis)
