"""The whole-system solve, for the tests only: fraction-free elimination of
every row of the augmented system, then back-substitution with every free
variable 0.  The tests check ``solve_rational`` against this oracle.  The
witness search assembles only the rows that b's rows reach through shared
columns; the tests check those rows against ``component`` of the whole
system, and its answers against this oracle on every row."""

from qshift.coefficients import _admit, _div, _eliminate


def full_solve(rows, rhs, ncols):
    """x with A x = b over Q, every free variable 0; None when b is not in
    the column space.  Every row of the system is eliminated."""
    pivots = _eliminate(_admit(rows, rhs, ncols))
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        rest = sum(v * sol[c] for c, v in prow.items() if lead < c < ncols)
        sol[lead] = _div(prow.get(ncols, 0) - rest, prow[lead])
    return sol


def nonzero(sol):
    """A dense solution as ``solve_rational`` returns it: {col: value} over
    its nonzero entries, in column order; None stays None."""
    return None if sol is None else {c: v for c, v in enumerate(sol) if v}


def component(rows, rhs):
    """(row indices, columns) of b's connected component: the rows joined
    to a row where b is nonzero by a chain of nonzero entries in shared
    columns, found by union-find over rows, columns and b's column."""
    parent = {}

    def root(node):
        while parent.get(node, node) != node:
            node = parent[node]
        return node

    def union(a, b):
        parent[root(a)] = root(b)

    for i, row in enumerate(rows):
        for c, v in row.items():
            if v:
                union(("row", i), ("col", c))
        if rhs.get(i):
            union(("row", i), "b")
    b = root("b")
    reached = [i for i in range(len(rows)) if root(("row", i)) == b]
    return reached, {c for i in reached for c, v in rows[i].items() if v}
