import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift.coefficients import HSeries, _div, rank_rational, solve_rational

from qshift.cohomology import element_keys_in_window
from qshift.gca import Element, make_crit_locus

from conftest import random_hseries, sparse_rows
from hbar_oracle import _divexact, rank_exact_fraction_field, twisted_matrix


def H(coeffs):
    return HSeries(coeffs)


def test_mul_exponent_addition():
    assert H({-1: 1}) * H({2: 1}) == H({1: 1})


def test_mul_difference_of_squares():
    a = H({0: 1, 1: 1})
    b = H({0: 1, 1: -1})
    assert a * b == H({0: 1, 2: -1})


def test_mul_commutative_associative():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (random_hseries(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_invariants_no_zero_coefficients():
    s = H({0: 1}) - H({0: 1})
    assert s.coeffs == {}
    assert H({2: 0}).coeffs == {}


def test_divexact_laurent_quotients():
    rng = random.Random(3)
    for _ in range(50):
        a, b = (random_hseries(rng, min_exp=-2) for _ in range(2))
        if b:
            assert _divexact(a * b, b) == a
    with pytest.raises(ArithmeticError):
        _divexact(H({0: 1}), H({0: 1, 1: 1}))
    with pytest.raises(ArithmeticError):
        _divexact(H({-1: 1, 1: 1}), H({0: 1, 1: 1}))


def test_rank_singular_example():
    h = H({1: 1})
    h2 = H({2: 1})
    one = H({0: 1})
    assert rank_exact_fraction_field([[h, one], [h2, h]]) == 1


def test_rank_identity_and_zero():
    one = H({0: 1})
    zero = HSeries.zero()
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert rank_exact_fraction_field(ident) == 3
    assert rank_exact_fraction_field([[zero, zero], [zero, zero]]) == 0


def _rescaled(rng, ncols, nrows):
    """Entries c * hbar^(u_col - v_row), plain 0 in empty cells, and their
    values at hbar = 1."""
    u = [rng.randint(0, 3) for _ in range(ncols)]
    v = [rng.randint(0, 3) for _ in range(nrows)]
    values = [[rng.choice((0, 0, 1, -1, 2)) for _ in u] for _ in v]
    mat = [[HSeries.monomial(uc - vr, c) if c else 0
            for uc, c in zip(u, row)] for vr, row in zip(v, values)]
    return mat, values


def _at(mat, point):
    """The sparse rows of the matrix's values at hbar = point."""
    point = Fraction(point)
    return sparse_rows([[sum(v * point ** k for k, v in e.coeffs.items())
                         if e else Fraction(0) for e in row] for row in mat])


def test_rank_seed_independent_with_exact_fallback_agreement():
    """No seed picks the specialisation: on the diagonally rescaled
    matrices the engine ranks, every nonzero value of hbar gives the rank
    over Q(hbar) of the Bareiss oracle, so ranking at hbar = 1 is exact."""
    rng = random.Random(42)
    for _ in range(50):
        mat, values = _rescaled(rng, 5, 6)
        rx = rank_exact_fraction_field(mat)
        assert rank_rational(sparse_rows(values)) == rx
        for point in (2, -1, Fraction(1, 3)):
            assert rank_rational(_at(mat, point)) == rx


def test_rank_exact_on_structured_matrix():
    h = H({1: 1})
    one = H({0: 1})
    zero = HSeries.zero()
    # rank drops only at hbar = 0, generic rank is 2
    mat = [[h, zero], [zero, h], [one, one]]
    assert rank_exact_fraction_field(mat) == 2
    assert rank_rational(_at(mat, 1)) == 2


def test_rank_disagreeing_specialisations_fall_back_to_exact():
    """Specialisations of hbar disagree only off the rescaled class: hbar - 1
    loses its rank at hbar = 1, and only the exact rank over Q(hbar)
    decides.  A rescaled entry with the same value at hbar = 1 keeps it."""
    entry = HSeries({0: -1, 1: 1})
    assert rank_rational(_at([[entry]], 1)) == 0
    assert rank_rational(_at([[entry]], 2)) == 1
    assert rank_exact_fraction_field([[entry]]) == 1
    assert rank_exact_fraction_field([[HSeries({0: -3, 1: 1})]]) == 1
    rescaled = [[HSeries.monomial(1), HSeries.monomial(0)],
                [HSeries.monomial(2), HSeries.monomial(1)]]
    assert rank_rational(_at(rescaled, 1)) == 1
    assert rank_rational(_at(rescaled, 2)) == 1
    assert rank_exact_fraction_field(rescaled) == 1


def test_rank_rational_and_solve():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert rank_rational(rows) == 1
    sol = solve_rational([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}],
                         {0: Fraction(3), 1: Fraction(1)}, 2)
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_rational([{}], {0: Fraction(1)}, 1) is None
    assert solve_rational([], {}, 2) == [0, 0]


def test_kernel_admits_explicit_zero_and_integral_fraction():
    """A stored 0 is dropped, not taken as a lead, an integral Fraction is
    canonicalised, and the caller's rows are left as they were."""
    rows = [{0: 0, 1: Fraction(4, 2)}, {0: 1, 1: Fraction(0)}, {0: Fraction(2, 2)}]
    before = repr(rows)
    assert rank_rational(rows) == 2
    assert rank_rational([{0: 0}, {3: Fraction(0, 5)}]) == 0
    sol = solve_rational(rows, {0: Fraction(4, 2), 1: 3, 2: 3}, 2)
    assert sol == [3, 1] and [type(v) for v in sol] == [int, int]
    assert solve_rational(rows, {1: 0, 2: Fraction(6, 2)}, 2) is None
    assert solve_rational([{0: Fraction(4, 2), 1: 0}], {0: Fraction(1)}, 2) == \
        [Fraction(1, 2), 0]
    assert repr(rows) == before
    with pytest.raises(TypeError):  # a float is refused, even one that cancels
        rank_rational([{0: 1}, {0: 1.0}])
    with pytest.raises(TypeError):  # in the right-hand side too
        solve_rational([{0: 2}], {0: 0.5}, 1)


def test_div_stays_int_when_exact():
    assert _div(6, 3) == 2 and type(_div(6, 3)) is int
    assert _div(-4, 2) == -2 and type(_div(-4, 2)) is int
    assert _div(1, 3) == Fraction(1, 3)
    assert _div(Fraction(4, 3), Fraction(2, 3)) == 2
    assert type(_div(Fraction(4, 3), Fraction(2, 3))) is int


# ---------------------------------------------------------------------------
# The sparse kernel against a dense reference elimination
# ---------------------------------------------------------------------------

def _reference_rref(rows, ncols):
    """Dense Gauss-Jordan elimination: (pivot columns, reduced rows)."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][col]
        m[k] = [v * inv for v in m[k]]
        for r in range(len(m)):
            if r != k and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
        pivots.append(col)
    return pivots, m


_entries = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _systems(draw):
    """(rows, rhs): tall or wide, with zero rows and columns, and a
    right-hand side that is zero, arbitrary, or in the column space."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7)) if nrows else 0
    rows = [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)]
    kind = draw(st.sampled_from(["zero", "arbitrary", "consistent"]))
    if kind == "zero":
        rhs = [Fraction(0)] * nrows
    elif kind == "arbitrary":
        rhs = [draw(_entries) for _ in range(nrows)]
    else:
        x = [draw(_entries) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    return rows, rhs


@st.composite
def _sparse_systems(draw):
    """A dense system and the same system as sparse rows and a sparse
    right-hand side, some zero cells kept as explicit zero entries."""
    rows, rhs = draw(_systems())
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: v for c, v in enumerate(row) if v or draw(st.booleans())}
              for row in rows]
    sparse_rhs = {i: b for i, b in enumerate(rhs) if b or draw(st.booleans())}
    return rows, rhs, sparse, sparse_rhs, ncols


@settings(max_examples=300, deadline=None)
@given(_sparse_systems())
def test_sparse_kernel_matches_dense_reference(system):
    rows, rhs, sparse, sparse_rhs, ncols = system
    before = repr((sparse, sparse_rhs))
    pivots, _ = _reference_rref(rows, ncols)
    assert rank_rational(sparse) == len(pivots)
    aug_pivots, reduced = _reference_rref(
        [row + [b] for row, b in zip(rows, rhs)], ncols + 1)
    sol = solve_rational(sparse, sparse_rhs, ncols)
    assert (sol is None) == (ncols in aug_pivots)
    if sol is not None:
        assert all(sum((a * x for a, x in zip(row, sol)), Fraction(0)) == b
                   for row, b in zip(rows, rhs))
        expected = [Fraction(0)] * ncols
        for k, col in enumerate(aug_pivots):
            expected[col] = reduced[k][ncols]
        assert sol == expected
    assert repr((sparse, sparse_rhs)) == before


@st.composite
def _witness_systems(draw):
    """Systems shaped like the coboundary searches of check_compatibility:
    20-80 sparse rows of 1-3 nonzero int entries up to 60 in size, some
    rows of Fraction entries, and a right-hand side that is zero,
    arbitrary, or in the column space."""
    ncols = draw(st.integers(5, 30))
    values = st.integers(-60, 60).filter(bool)
    rows = []
    for _ in range(draw(st.integers(20, 80))):
        row = draw(st.dictionaries(st.integers(0, ncols - 1), values,
                                   min_size=1, max_size=3))
        if draw(st.integers(0, 4)) == 0:
            row = {c: Fraction(v, draw(st.integers(1, 6)))
                   for c, v in row.items()}
        rows.append(row)
    kind = draw(st.sampled_from(["zero", "arbitrary", "consistent"]))
    if kind == "zero":
        rhs = {}
    elif kind == "arbitrary":
        rhs = draw(st.dictionaries(st.integers(0, len(rows) - 1), values))
    else:
        x = [draw(st.integers(-3, 3)) for _ in range(ncols)]
        rhs = {i: sum((v * x[c] for c, v in row.items()), 0)
               for i, row in enumerate(rows)}
    return rows, rhs, ncols, draw(st.permutations(range(len(rows))))


@settings(max_examples=40, deadline=None)
@given(_witness_systems())
def test_kernel_on_witness_shaped_systems(system):
    """Rank, solvability and the solution with every free variable 0 agree
    with the dense reference, whatever the row order, and the caller's rows
    are left as they were."""
    rows, rhs, ncols, perm = system
    before = repr((rows, rhs))
    dense = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots, _ = _reference_rref(dense, ncols)
    aug_pivots, reduced = _reference_rref(
        [r + [Fraction(rhs.get(i, 0))] for i, r in enumerate(dense)], ncols + 1)
    expected = None
    if ncols not in aug_pivots:
        expected = [Fraction(0)] * ncols
        for k, col in enumerate(aug_pivots):
            expected[col] = reduced[k][ncols]
    sol = solve_rational(rows, rhs, ncols)
    assert rank_rational(rows) == len(pivots)
    assert sol == expected
    if sol is not None:
        assert all(type(v) is int or v.denominator > 1 for v in sol)
    where = {i: k for k, i in enumerate(perm)}
    permuted = [rows[i] for i in perm]
    assert rank_rational(permuted) == len(pivots)
    assert solve_rational(permuted, {where[i]: b for i, b in rhs.items()},
                          ncols) == sol
    assert repr((rows, rhs)) == before


def test_slice_rank_hands_canonical_sparse_rows(monkeypatch):
    """``_slice_rank`` hands ``rank_rational`` sparse rows whose every entry
    is a canonical nonzero rational (an ``int``, or a ``Fraction`` with
    denominator > 1), and it ranks them to the rank over Q(hbar) of the
    oracle on the same slice of delta + hbar*Delta."""
    from qshift import cohomology
    seen = []

    def rank_spy(rows):
        seen.append(rows)
        return rank_rational(rows)

    monkeypatch.setattr(cohomology, "rank_rational", rank_spy)
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    socle = sum(1 - 2 * w for w in X.signature.weights)
    cells = 0
    for basis in element_keys_in_window(X, socle).values():
        seen.clear()
        r = cohomology._slice_rank(X, basis)
        assert r == rank_exact_fraction_field(twisted_matrix(X, basis))
        for rows in seen:
            for row in rows:
                assert isinstance(row, dict)
                for v in row.values():
                    assert v and (type(v) is int
                                  or type(v) is Fraction and v.denominator > 1)
                    cells += 1
    assert cells
