"""The operator window enumerated through ``Codec.encode``, for the tests
only: exponent vectors and eta sets from ``itertools``, one encoded key per
fixed part (b, T, S) plus the encoded y^a.  The engine packs the same keys
with its one enumerator, ``coefficients.packed_keys``; the tests check it
against this oracle, list for list."""

import itertools

from qshift.coefficients import codec


def subsets(m):
    """The index tuples S of 1..m, sorted."""
    return sorted(S for k in range(m + 1)
                  for S in itertools.combinations(range(1, m + 1), k))


def exponents(m, cap):
    """The exponent vectors of total degree <= cap, lexicographic: the
    filtered ``itertools.product``, which is."""
    return [a for a in itertools.product(range(cap + 1), repeat=m)
            if sum(a) <= cap]


def operator_keys_by_encode(X, order_cap, ydeg_cap, arity_exact=None):
    """Operator monomial keys y^a eta_S d_y^b d_eta_T with derivative degree
    <= order_cap (or exactly ``arity_exact``) and |a| <= ydeg_cap, ordered
    by T in ``subsets`` order, then b lexicographic, then S, then a."""
    C = codec(X.m)
    zero, sets = (0,) * X.m, subsets(X.m)
    top = order_cap if arity_exact is None else arity_exact
    alist = [C.encode(a) for a in exponents(X.m, ydeg_cap)]
    return [fixed + a for T in sets if len(T) <= top
            for b in exponents(X.m, top - len(T))
            if arity_exact is None or sum(b) + len(T) == top
            for S in sets for fixed in (C.encode(zero, S, b, T),)
            for a in alist]
