"""The witness search's reverse lookup by scanning, for the tests only: the
candidates indexed by their even part alone, and every probe filters the
odd bits of each candidate in its bucket one at a time.  The engine's
``derham._source_lookup`` keys the odd part exactly; the tests check that
both name the same (i, e) set from every row key."""

from qshift.coefficients import codec


def scanning_source_lookup(total, candidates, n):
    """The sources of a row key k: a superset of the (i, e), 0 <= e < n,
    with k - e hbar a key of [total, candidates[i]].  A key of t o u or
    u o t, t a term of ``total``, is even(t) + even(u) less a Leibniz step
    Sum_i j_i (y_i + d_y_i), 0 <= j_i <= max(y_i(t), d_y_i(t)), plus u's
    odd bits off t's variables; a negative field sets a guard bit, which no
    candidate carries."""
    C = codec(total.m)
    odd, shift, probes, index = C.odd, C.hbar_shift, set(), {}
    for t in total.terms:
        steps, used = [0], (t | t >> 1) & C.eta  # used: t's odd variables
        for yo, do, unit in C.shared.values():
            top = max(t >> yo & C.field, t >> do & C.field)
            steps = [s + j * unit for s in steps for j in range(top + 1)]
        probes.update(((t & ~odd) - s, odd ^ 3 * used) for s in steps)
    for i, u in enumerate(candidates):
        index.setdefault(u & ~odd, []).append((i, u & odd))
    return lambda k: {
        (i, e) for offset, outside in probes
        for diff in ((k & ~odd) - offset,) for e in (diff >> shift,)
        if 0 <= e < n for i, u in index.get(diff - (e << shift), ())
        if not (u ^ k) & outside}
