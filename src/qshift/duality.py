"""Transpose anti-automorphism on differential operators, the star
involution Delta -> -Delta^t(-hbar), and the self-duality check, which
answers the one ``quantise.Verdict``: Strict or Fails.

The transpose is realised in the constant-volume trivialisation, so the
divergence correction vanishes and the whole map is determined by one sign
per derivative generator: -1 on d_y and on d_eta.  ``solve_sign_profile``
derives those signs from the defining relations [d_y, y] = 1 and
[d_eta, eta] = 1 and checks the transpose against them on every generator.
"""

from __future__ import annotations

from .coefficients import codec
from .diffops import Operator, _product_into, op_compose
from .errors import NoConsistentProfile
from .gca import CritLocus, Element
from .quantise import Quantisation, Verdict


def transpose(D: Operator) -> Operator:
    """The transpose D^t: the anti-automorphism that fixes y_i and eta_i
    and sends d_y -> -d_y and d_eta -> -d_eta (``solve_sign_profile``
    derives and checks these signs).

    Each monomial y^a eta_S d_y^b d_eta_T is reversed with the Koszul sign
    (-1)^(n(n-1)/2) of its n = |S| + |T| odd generators and carries the
    generator sign (-1)^order, one per derivative.  Putting the reversed
    eta_S and d_eta_T back in order, the reversed word is
    (d_y^b d_eta_T) o (y^a eta_S) times
    (-1)^(|S|(|S|-1)/2 + |T|(|T|-1)/2), one product per term.
    """
    C = codec(D.m)
    out = {}
    for key, c in D.terms.items():
        mult = key & (C.y_block | C.eta)
        ns, nt = (key & C.eta).bit_count(), (key & C.deta).bit_count()
        n = ns + nt
        if (C.order(key) + n * (n - 1) // 2 + ns * (ns - 1) // 2
                + nt * (nt - 1) // 2) % 2:
            c = -c
        _product_into(out, ((key - mult, c),), ((mult, 1),), C)
    return Operator._from_store(D.m, out)


def solve_sign_profile(X: CritLocus) -> dict:
    """The transpose's signs on the generators, derived from the defining
    relations and checked against ``transpose``.

    A graded anti-automorphism tau, tau(AB) = (-1)^(|A||B|) tau(B) tau(A),
    that fixes the multiplications and sends a derivative generator g to
    s_g g maps the graded commutator [g, x] = g x - (-1)^(|g||x|) x g of g
    with its coordinate x to -s_g [g, x].  Both relations [d_y, y] = 1 and
    [d_eta, eta] = d_eta eta + eta d_eta = 1 have tau(1) = 1 on the right,
    so s_g = -1 for both.  It is checked on every generator pair of X's
    variables: the relation holds in the operator algebra, the transpose
    fixes x, is an involution on g, and reverses both products g x and x g
    with their Koszul sign.  A failed check raises NoConsistentProfile.
    Returns the signs {"mult_y": 1, "mult_eta": 1, "d_y": -1, "d_eta": -1}.
    """
    m, tau = X.m, transpose
    for i in range(1, m + 1):
        for g, x, eps in (
                (Operator.d_y(m, i), Element.y(m, i), 1),
                (Operator.d_eta(m, i), Element.eta(m, i), -1)):
            gx, xg = op_compose(g, x), op_compose(x, g)
            if not (gx - xg.scale(eps) == Operator.identity(m)
                    and tau(x) == x and tau(tau(g)) == g
                    and tau(gx) == op_compose(tau(x), tau(g)).scale(eps)
                    and tau(xg) == op_compose(tau(g), tau(x)).scale(eps)):
                raise NoConsistentProfile(
                    f"the transpose fails the defining relation of "
                    f"generator {i}")
    return {"mult_y": 1, "mult_eta": 1, "d_y": -1, "d_eta": -1}


def star(delta: Quantisation) -> Quantisation:
    """Delta*(hbar) = -Delta^t(-hbar): one transpose of the series, then
    the sign -(-1)^e on hbar^e.  The transpose keeps each hbar^e
    coefficient hbar-free and does not raise its order, so the result is a
    quantisation without a second check."""
    C = codec(delta.m)
    return Quantisation._from_store(delta.m, {
        k: c if k >> C.hbar_shift & 1 else -c
        for k, c in transpose(delta).terms.items()})


def is_self_dual(delta: Quantisation) -> Verdict:
    """Strict iff star(Delta) = Delta exactly; otherwise Fails, with the
    difference as the residual."""
    residual = star(delta) - delta
    if residual.is_zero():
        return Verdict(Verdict.STRICT)
    return Verdict(Verdict.FAILS, residual=residual)
