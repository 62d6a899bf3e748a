"""The operator window enumerated through ``Codec.encode``, for the tests
only: one encoded key per fixed part (b, T, S) plus the encoded y^a.  The
engine packs the same keys with integer masks and sums; the tests check it
against this oracle, list for list."""

from qshift.coefficients import codec
from qshift.cohomology import eta_subsets, iter_y_exponents


def operator_keys_by_encode(X, order_cap, ydeg_cap, arity_exact=None):
    """Operator monomial keys y^a eta_S d_y^b d_eta_T with derivative degree
    <= order_cap (or exactly ``arity_exact``) and |a| <= ydeg_cap, ordered
    by T in ``eta_subsets`` order, then b lexicographic, then S, then a."""
    C = codec(X.m)
    zero, subsets = (0,) * X.m, eta_subsets(X.m)
    top = order_cap if arity_exact is None else arity_exact
    alist = [C.encode(a) for a in iter_y_exponents(X.m, ydeg_cap)]
    return [fixed + a for T in subsets if len(T) <= top
            for b in iter_y_exponents(X.m, top - len(T))
            if arity_exact is None or sum(b) + len(T) == top
            for S in subsets for fixed in (C.encode(zero, S, b, T),)
            for a in alist]
