import importlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshift import derham, quantise
from qshift.coefficients import HSeries, _accumulate, codec
from qshift.derham import (CompatVerdict, DRWord, SearchWindow, _nu_apply,
                           _nu_slots, canonical_symplectic,
                           check_chain_identity, check_compatibility, cup,
                           dr_d, dr_of, dr_total_d, mu, nu)
from qshift.coefficients import solve_rational
from qshift.diffops import (Operator, _banded_images, op_commutator,
                            op_compose, schouten, symbol)
from qshift.errors import NotCertified, NotMaurerCartan
from qshift.gca import Element, gmul, make_crit_locus
from qshift.quantise import (Quantisation, bv_quantisation, centre_differential,
                             _canonical_nu_slots, _nu_block, koszul_operator,
                             mc_residual, nu_eigen_analysis,
                             operator_keys_in_window, sigma_tangent)

from generator_oracle import op_apply
from solve_oracle import component, full_solve

from conftest import (arity_keys, corpus_locus, decoded, decoded_words,
                      degree_part, dr_total_d_reference, hbar_component,
                      levels, mono_mul,
                      random_element, random_homogeneous_operator,
                      random_operator, random_polyvector, random_quantisation,
                      sparse_rows, unit_key)


def _word(m, *monos, hexp=0, coeff=1):
    return DRWord(m, {(hexp, tuple(monos)): Fraction(coeff)})


def _ykey(m, i, power=1):
    e = [0] * m
    e[i - 1] = power
    return (tuple(e), ())


def _ekey(m, i):
    return ((0,) * m, (i,))


def test_dr_d_even_generator():
    m = 1
    w = dr_d(Element.y(m, 1))
    u = unit_key(m)
    assert w == (_word(m, u, _ykey(m, 1)) - _word(m, _ykey(m, 1), u))
    assert w.hodge_weight == 1


def test_dr_d_unit_vanishes():
    assert dr_d(Element.one(2)).is_zero()


def test_dr_d_odd_generator_sign():
    m = 1
    w = dr_d(Element.eta(m, 1))
    u = unit_key(m)
    assert w == (_word(m, u, _ekey(m, 1)) + _word(m, _ekey(m, 1), u))


def test_cup_merges_middle():
    m = 1
    u = unit_key(m)
    a, b = _ykey(m, 1), _ekey(m, 1)
    w = cup(_word(m, u, a), _word(m, u, b))
    assert w == _word(m, u, a, b)
    # length-1 words multiply in the algebra
    assert cup(dr_of(Element.y(m, 1)), dr_of(Element.y(m, 1))) \
        == dr_of(Element.y(m, 1) ** 2)


def test_cup_four_term_expansion():
    m = 1
    u = unit_key(m)
    y, e = _ykey(m, 1), _ekey(m, 1)
    ye = gmul(Element.y(m, 1), Element.eta(m, 1))
    (((yekey, _), _),) = decoded(ye).items()
    w = cup(dr_d(Element.y(m, 1)), dr_d(Element.eta(m, 1)))
    expected = (_word(m, u, y, e) + _word(m, u, yekey, u)
                - _word(m, y, u, e) - _word(m, y, e, u))
    assert w == expected
    assert w.hodge_weight == 2


def test_cup_associative_random():
    rng = random.Random(15)
    for _ in range(25):
        m = rng.randint(1, 2)
        words = []
        for _ in range(3):
            a = random_element(rng, m, nterms=1)
            words.append(dr_d(a) if rng.random() < 0.5 else dr_of(a))
        w1, w2, w3 = words
        assert cup(cup(w1, w2), w3) == cup(w1, cup(w2, w3))


def test_drword_arithmetic_and_weights():
    """A de Rham word has the store arithmetic of every value type, with a
    Hodge weight: through +, -, unary minus and scale it is the least
    weight of the nonzero operands, and a zero operand takes the other's.
    Equal words hash equal, whatever their weights, and a rational is not a
    word: adding one raises instead of storing a key 0."""
    m = 1
    a = dr_of(Element.y(m, 1))
    b = dr_d(Element.y(m, 1))
    c = cup(dr_d(Element.y(m, 1)), dr_d(Element.eta(m, 1)))
    assert (a.hodge_weight, b.hodge_weight, c.hodge_weight) == (0, 1, 2)
    assert (b + c).hodge_weight == (c + b).hodge_weight == 1
    assert (c - b).hodge_weight == (b - c).hodge_weight == 1
    assert (a + c).hodge_weight == 0
    zero0, zero2 = DRWord.zero(m, 0), DRWord.zero(m, 2)
    assert (zero2 + b).hodge_weight == (zero0 + b).hodge_weight == 1
    assert (b + zero0).hodge_weight == (b + zero2).hodge_weight == 1
    assert (zero0 + zero2).hodge_weight == 2
    assert (-c).hodge_weight == 2 and (-c).terms == c.scale(-1).terms
    assert c.scale(Fraction(1, 2)).hodge_weight == 2
    assert c.scale(0).is_zero() and c.scale(0).hodge_weight == 2
    assert (c - c).is_zero() and (c - c).hodge_weight == 2
    assert (b + b).terms == b.scale(2).terms
    assert ((b + c) - c).terms == b.terms
    assert zero0 == zero2 and c - c == zero0
    twin = dr_d(Element.y(m, 1))
    assert twin == b and hash(twin) == hash(b) and len({twin, b, c}) == 2
    assert b != c and b != 1
    for bad in (lambda: b + 1, lambda: 1 + b, lambda: b - 1, lambda: 1 - b):
        with pytest.raises((TypeError, AttributeError)):
            bad()
    assert 0 not in b.terms


def test_total_d_on_closed_generator():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    assert dr_total_d(X, dr_d(Element.y(1, 1))).is_zero()


def test_total_d_on_length_one():
    """D(a) = (delta a) + dr_d(a); for delta-closed a just dr_d(a)."""
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    a = Element.y(1, 1) ** 3
    assert dr_total_d(X, dr_of(a)) == dr_d(a)
    eta = Element.eta(1, 1)
    assert dr_total_d(X, dr_of(eta)) == dr_of(2 * Element.y(1, 1)) + dr_d(eta)


def test_total_d_squares_to_zero_random():
    rng = random.Random(16)
    X = corpus_locus(4)
    m = X.m
    for _ in range(25):
        pieces = [dr_d(random_element(rng, m, nterms=1))
                  if rng.random() < 0.5 else dr_of(random_element(rng, m, nterms=1))
                  for _ in range(rng.randint(1, 3))]
        w = pieces[0]
        for piece in pieces[1:]:
            w = cup(w, piece)
        assert dr_total_d(X, dr_total_d(X, w)).is_zero()


def test_total_d_brackets_only_the_factors_with_eta(monkeypatch):
    """delta of a factor without eta, the unit among them, is 0, so the
    total differential takes one kernel bracket per distinct factor that
    has an eta and none for the others."""
    X = corpus_locus(4)
    C = codec(X.m)
    x, eta = Element.y(X.m, 1), Element.eta(X.m, 2)
    w = (canonical_symplectic(X) + cup(dr_d(x * eta), dr_of(x))
         + cup(dr_of(eta), dr_d(x)))
    factors = {k for _, ws in w.terms for k in ws}
    assert any(k & C.eta for k in factors) and 0 in factors
    assert any(k and not k & C.eta for k in factors)
    expected = dr_total_d(X, w)
    calls = []
    real = derham._product_into

    def counting(acc, left, right, *args, **kwargs):
        calls.extend(k for k, _ in right)
        return real(acc, left, right, *args, **kwargs)

    monkeypatch.setattr(derham, "_product_into", counting)
    assert dr_total_d(X, w) == expected
    assert sorted(calls) == sorted(k for k in factors if k & C.eta)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       q=st.sampled_from([1, -3, Fraction(1, 2), Fraction(-2, 3)]))
def test_total_d_matches_the_three_term_reference(seed, q):
    """One unit per gap against the three insertions per factor and slot
    of the reference, for m up to 3: words of length 1 to 5 over letters
    with the unit, eta factors and y's, at hbar exponents -1 to 2, with
    coefficients that are Fractions for q non-integral."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    X = corpus_locus((0, 4, 7)[m - 1])
    letters = [unit_key(m), _ekey(m, 1), _ekey(m, m), _ykey(m, 1, 2)]
    letters.append((tuple(rng.randint(0, 2) for _ in range(m)),
                    tuple(sorted(rng.sample(range(1, m + 1),
                                            rng.randint(0, m))))))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        ws = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        terms[(rng.randint(-1, 2), ws)] = q * rng.choice([1, -1, 2])
    w = DRWord(m, terms, rng.randint(0, 2))
    Dw = dr_total_d(X, w)
    assert Dw == dr_total_d_reference(X, w)
    assert Dw.hodge_weight == w.hodge_weight


def apply_codegeneracy(w: DRWord, j: int) -> DRWord:
    """Koszul-signed codegeneracy: multiply adjacent factors j, j+1 with the
    twist (-1)^(deg a_0 + ... + deg a_j).  The twist matches the sign
    conventions of the total differential; words built from algebra elements
    and formal differentials are annihilated by every such map."""
    C = codec(w.m)
    out = {}
    for (e, ws), c in w.terms.items():
        if j + 1 >= len(ws):
            raise ValueError("codegeneracy index out of range")
        prefix = sum(C.degree(k) for k in ws[:j + 1])
        psign = -1 if prefix % 2 else 1
        mid, sign = mono_mul(ws[j], ws[j + 1], C)
        if mid is None:
            continue
        _accumulate(out, (e, ws[:j] + (mid,) + ws[j + 2:]), psign * sign * c)
    return DRWord._from_store(w.m, out, w.hodge_weight)


def test_constructed_words_are_normalised():
    """Products of dr_of/dr_d factors vanish under every (Koszul-signed)
    codegeneracy: normalisation is a consequence of the construction."""
    rng = random.Random(17)
    X = corpus_locus(4)
    m = X.m
    for _ in range(30):
        pieces = [dr_d(random_element(rng, m, nterms=2))
                  if rng.random() < 0.6 else dr_of(random_element(rng, m, nterms=2))
                  for _ in range(rng.randint(2, 3))]
        w = pieces[0]
        for piece in pieces[1:]:
            w = cup(w, piece)
        maxlen = max((len(ws) for (_, ws) in w.terms), default=0)
        if maxlen < 2:
            continue
        for j in range(maxlen - 1):
            assert apply_codegeneracy(w, j).is_zero()


def test_canonical_symplectic_shape():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    om = canonical_symplectic(X)
    assert om == cup(dr_d(Element.y(1, 1)), dr_d(Element.eta(1, 1)))
    assert om.hodge_weight == 2


def test_canonical_symplectic_total_d():
    """Chain-level, D(omega) equals Sum_i dy_i cup dr_d(partial_i f): zero
    exactly when all partials are constant, and always killed by mu against
    the canonical quantisation."""
    X = make_crit_locus(Element.y(1, 1), 1)  # df constant
    assert dr_total_d(X, canonical_symplectic(X)).is_zero()
    for idx in (0, 4):
        X = corpus_locus(idx)
        m = X.m
        om = canonical_symplectic(X)
        dom = dr_total_d(X, om)
        expected = DRWord.zero(m)
        for i in range(1, m + 1):
            expected = expected + cup(dr_d(Element.y(m, i)),
                                      dr_d(X.partials[i - 1]))
        assert dom == expected
        assert not dom.is_zero()
        assert dr_total_d(X, dom).is_zero()
        assert mu(dom, bv_quantisation(X), X).is_zero()


def test_mu_on_generator_forms():
    m = 2
    X = make_crit_locus(Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3, m)
    bv = bv_quantisation(X)
    h = HSeries.monomial(1)
    assert mu(dr_d(Element.y(m, 1)), bv, X) == Operator.d_eta(m, 1).scale(h)
    assert mu(dr_d(Element.eta(m, 2)), bv, X) == Operator.d_y(m, 2).scale(h)
    w = cup(dr_d(Element.y(m, 1)), dr_d(Element.eta(m, 1)))
    expected = op_compose(Operator.d_eta(m, 1), Operator.d_y(m, 1)).scale(
        HSeries.monomial(2))
    assert mu(w, bv, X) == expected


def test_mu_of_algebra_element_is_multiplication():
    rng = random.Random(18)
    X = corpus_locus(4)
    delta = random_quantisation(rng, X.m)
    a = random_element(rng, X.m)
    assert mu(dr_of(a), delta, X) == a


def test_mu_multiplicative_random():
    rng = random.Random(19)
    for _ in range(30):
        m = rng.randint(1, 2)
        X = corpus_locus(4 if m == 2 else 0)
        delta = random_quantisation(rng, m)
        ws = []
        for _ in range(2):
            a = random_element(rng, m, nterms=1)
            ws.append(dr_d(a) if rng.random() < 0.5 else dr_of(a))
        lhs = mu(cup(ws[0], ws[1]), delta, X)
        rhs = op_compose(mu(ws[0], delta, X), mu(ws[1], delta, X))
        assert lhs == rhs


def test_nu_a_linear_and_unit_slot():
    rng = random.Random(20)
    X = corpus_locus(4)
    m = X.m
    delta = bv_quantisation(X)
    rho = Operator.d_eta(m, 1).scale(HSeries.monomial(1))
    assert nu(dr_of(random_element(rng, m)), delta, rho, X).is_zero()
    one_tensor_one = _word(m, unit_key(m), unit_key(m))
    assert nu(one_tensor_one, delta, rho, X) == rho


def test_nu_of_one_form_against_delta_itself():
    """Substituting Delta into the single slot of dy recovers [Delta, y]."""
    m = 2
    X = make_crit_locus(Element.y(m, 1) ** 3 + Element.y(m, 2) ** 3, m)
    bv = bv_quantisation(X)
    got = nu(dr_d(Element.y(m, 1)), bv, bv, X)
    assert got == mu(dr_d(Element.y(m, 1)), bv, X)
    assert got == Operator.d_eta(m, 1).scale(HSeries.monomial(1))


def test_nu_derivation_rule_random():
    rng = random.Random(21)
    for _ in range(25):
        m = rng.randint(1, 2)
        X = corpus_locus(4 if m == 2 else 0)
        delta = random_quantisation(rng, m)
        rho = mc_residual(X, delta)
        if rho.is_zero():
            rho = Operator.d_eta(m, 1).scale(HSeries.monomial(1))
        rho_degrees = rho.degrees()
        if len(rho_degrees) != 1:
            continue
        shift = rho_degrees.pop() - 1
        pieces = []
        for _ in range(2):
            a = random_element(rng, m, nterms=1)
            pieces.append(dr_d(a) if rng.random() < 0.5 else dr_of(a))
        w1, w2 = pieces
        w1_degrees = {sum(-len(k[1]) for k in ws) + len(ws) - 1
                      for (_, ws) in decoded_words(w1)}
        if len(w1_degrees) != 1:
            continue
        d1 = w1_degrees.pop()
        sign = -1 if (shift % 2) and (d1 % 2) else 1
        lhs = nu(cup(w1, w2), delta, rho, X)
        rhs = (op_compose(nu(w1, delta, rho, X), mu(w2, delta, X))
               + op_compose(mu(w1, delta, X), nu(w2, delta, rho, X)).scale(sign))
        assert lhs == rhs


def _nu_reference(w, delta, rho):
    """nu composed left to right per degree part, word and slot: the
    definition that the prefix/suffix factorisation must reproduce."""
    m = w.m
    D = delta
    out = Operator.zero(m)
    for rd in sorted(rho.degrees()):
        rpart = degree_part(rho, rd)
        shift = rd - 1
        for (e, ws), c in decoded_words(w).items():
            r = len(ws) - 1
            for slot in range(r):
                prefix = sum(-len(k[1]) for k in ws[:slot + 1]) + slot
                sign = -1 if (shift * prefix) % 2 else 1
                op = Operator(m, {(ws[0][0], ws[0][1], (0,) * m, ()): 1})
                for i, mono in enumerate(ws[1:], start=1):
                    op = op_compose(op, rpart if i - 1 == slot else D)
                    if op.is_zero():
                        break
                    op = op_compose(op, Operator(
                        m, {(mono[0], mono[1], (0,) * m, ()): 1}))
                out = out + op.scale(HSeries.monomial(e, sign * c))
    return out


def _mu_reference(w, delta):
    """mu word by word, left to right: c hbar^e a_0 o Delta o a_1 o ... ."""
    m = w.m
    D = delta
    out = Operator.zero(m)
    for (e, ws), c in decoded_words(w).items():
        op = Operator(m, {(ws[0][0], ws[0][1], (0,) * m, ()): HSeries.monomial(e, c)})
        for mono in ws[1:]:
            op = op_compose(op_compose(op, D),
                            Operator(m, {(mono[0], mono[1], (0,) * m, ()): 1}))
        out = out + op
    return out


_COEFFS = st.sampled_from([1, -2, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), q=_COEFFS)
@example(seed=1555, q=1)
@example(seed=1803, q=1)
@example(seed=3075, q=1)
@example(seed=3170, q=1)
def test_mu_matches_word_by_word_reference(seed, q):
    """Horner's rule on the prefix trie against the word-by-word product,
    for m up to 3: words of length up to 5 over a four-letter alphabet with
    the unit share prefixes and carry unit factors, each at one or two hbar
    exponents; y_1 (x) ... (x) y_1, five factors, repeats one first factor
    at every depth; dr_d, cup and dr_total_d add their own unit factors.
    For m >= 2, Delta carries eta_1 d_eta_1 d_eta_2 and d_y_2 d_eta_2, so
    the letter eta_1 kills a term of Delta and keeps another: its block
    a o Delta is shorter than Delta and not empty."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    X = corpus_locus((0, 4, 7)[m - 1])
    delta = random_quantisation(rng, m)
    killer = ((0,) * m, (1,))
    if m >= 2:
        C = codec(m)
        h1 = hbar_component(delta, 1)
        dy2 = (0, 1) + (0,) * (m - 2)
        # Delta may already hold minus either term; add it twice then, so
        # that the term survives the sum.
        extra = Operator(m, {key: 2 if h1.terms.get(C.encode(*key)) == -1 else 1
                             for key in (((0,) * m, (1,), (0,) * m, (1, 2)),
                                         ((0,) * m, (), dy2, (2,)))})
        delta = Quantisation(m, {2: h1 + extra, 3: hbar_component(delta, 2)})
        a = C.encode(*killer)
        block = [k for k in delta.terms if mono_mul(a, k, C)[0] is not None]
        assert 0 < len(block) < len(delta.terms)
    y1 = ((1,) + (0,) * (m - 1), ())
    letters = [unit_key(m), killer, y1,
               (tuple(rng.randint(0, 1) for _ in range(m)),
                tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, 1)))))]
    terms = {(0, (y1,) * 5): q}
    for _ in range(rng.randint(1, 6)):
        ws = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        for e in rng.sample(range(-1, 3), rng.randint(1, 2)):
            terms[(e, ws)] = q * rng.choice([1, -1, 3])
    pieces = [random_element(rng, m, nterms=2, with_hbar=True).scale(q)
              for _ in range(2)]
    formed = cup(dr_d(pieces[0]), dr_of(pieces[1]))
    for w in (DRWord(m, terms), formed, dr_total_d(X, formed)):
        assert mu(w, delta, X) == _mu_reference(w, delta)


def test_mu_takes_one_product_per_trie_node_with_tails(monkeypatch):
    """mu composes at each node of the words' prefix trie that has tails
    one block a o Delta (Delta itself for the unit) with the tails' sum:
    one kernel call per such node, plus one call per distinct factor a != 1
    of those nodes, a alone with Delta, which builds its block once."""
    m = 2
    X = corpus_locus(4)
    extra = Operator(m, {((0, 0), (1,), (0, 0), (1, 2)): 1})
    delta = Quantisation(m, {2: hbar_component(bv_quantisation(X), 1) + extra})
    y1, y2, e1 = ((1, 0), ()), ((0, 1), ()), ((0, 0), (1,))
    u = unit_key(m)
    w = DRWord(m, {(0, (y1, e1, y2)): 1, (1, (y1, e1)): 2, (0, (y1, u, e1)): 3,
                   (0, (u, e1, e1, y1)): -1, (2, (e1, y2)): 1,
                   (0, (e1,)): 5}) + canonical_symplectic(X)
    nodes = {ws[:i] for (_, ws) in w.terms for i in range(1, len(ws))}
    factors = {node[-1] for node in nodes} - {0}
    C = codec(m)
    D = list(delta.terms.items())
    blocks = {0: D}
    for a in factors:
        blocks[a] = [(key, s * v) for k, v in D
                     for key, s in (mono_mul(a, k, C),) if s]
    assert any(0 < len(b) < len(D) for b in blocks.values())
    calls = []
    original = derham._product_into
    monkeypatch.setattr(derham, "_product_into",
                        lambda acc, left, right, C: calls.append(
                            (list(left), list(right)))
                        or original(acc, left, right, C))
    assert mu(w, delta, X) == _mu_reference(w, delta)
    alone = [left for left, right in calls
             if right == D and len(left) == 1 and left[0][0] in factors]
    assert sorted(alone) == sorted([(a, 1)] for a in factors)
    assert len(calls) == len(nodes) + len(factors)
    assert sum(left in blocks.values() for left, _ in calls) == len(nodes)


def _random_word(rng, m, length):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        ws = tuple((tuple(rng.randint(0, 1) for _ in range(m)),
                    tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))))
                   for _ in range(length))
        terms[(rng.randint(0, 2), ws)] = Fraction(rng.choice([-3, -1, 1, 2]))
    return DRWord(m, terms)


def test_nu_matches_left_to_right_reference():
    """nu against its slot-by-slot definition, for m up to 3.  Beside a
    random word w, two words make slots share a right factor up to a
    non-unit rational, so that merging them divides: 2/3 omega + w, whose
    merged left factors always carry a Fraction, and w plus the words of w
    with (2/3) y_1 multiplied into the first factor."""
    rng = random.Random(22)
    for trial in range(24):
        m = 1 + trial % 3
        X = corpus_locus((0, 4, 7)[m - 1])
        delta = random_quantisation(rng, m)
        rho = sum((random_homogeneous_operator(rng, m, rng.randint(0, 2), d)
                   for d in (-1, 0, 1)), Operator.zero(m))
        rho = rho + mc_residual(X, delta)
        w = _random_word(rng, m, 1 + trial % 4)
        third = Fraction(2, 3)
        omega = canonical_symplectic(X).scale(third) + w
        for word in (w, omega, w + cup(dr_of(Element.y(m, 1).scale(third)), w)):
            assert nu(word, delta, rho, X) == _nu_reference(word, delta, rho)
        slots, _ = _nu_slots(omega, delta)
        assert any(type(c) is Fraction for _, left, _ in slots for _, c in left)


@pytest.mark.parametrize("m, count, terms", [(1, 4, 5), (2, 6, 8), (3, 8, 11)])
def test_canonical_pair_slots_grouped_by_right_factor(m, count, terms):
    """The canonical pair on x_1^3 + ... + x_m^3 has 6/11/16 proper
    prefixes, whose left factors carry 11/29/55 terms; merged per parity
    and right factor up to a scalar, they come to 4/6/8 slots with 5/8/11
    terms, each right factor 1 on its least key."""
    f = sum((Element.y(m, i) ** 3 for i in range(2, m + 1)), Element.y(m, 1) ** 3)
    X = make_crit_locus(f, m)
    slots, _ = _nu_slots(canonical_symplectic(X), bv_quantisation(X))
    assert len(slots) == count
    assert sum(len(left) for _, left, _ in slots) == terms
    assert len({(parity, right) for parity, _, right in slots}) == count
    assert all(dict(right)[min(dict(right))] == 1 for _, _, right in slots)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_eigen_block_matches_reference_nu_columns(monkeypatch, p):
    """nu_eigen_analysis builds, on the arity-p keys of y-degree 0, the
    same images as the reference nu applied to each key; and the reference
    nu of y_i rho is y_i times that of rho, the step that carries the block
    to every y-degree."""
    X = corpus_locus(4)
    omega, delta = canonical_symplectic(X), bv_quantisation(X)
    C = codec(X.m)
    built = []

    def recording(X, block, slots):
        images = _nu_block(X, block, slots)
        built.append((block, images))
        return images

    monkeypatch.setattr(quantise, "_nu_block", recording)
    report = nu_eigen_analysis(X, p, 2, 1)
    block = arity_keys(X, p, 0)
    (applied, images), = built
    assert applied == block
    assert report["block_dim"] == 3 * len(block)

    def reference(key):
        return _nu_reference(omega, delta, Operator._from_store(X.m, {key: 1}))

    for key, image in zip(block, images):
        want = reference(key)
        assert image == want.terms
        for y in C.y:
            assert reference(key + y).terms == \
                {k + y: c for k, c in want.terms.items()}
    assert report["eigenvalues"] == [p]


def test_eigen_images_carry_lower_arity_terms():
    """At m = 1, nu(eta_1 d_eta_1) = hbar (eta_1 d_eta_1 - 1): the images
    have hbar^1 terms of lower arity, which the scalar check leaves out as
    the lower filtration step."""
    X = corpus_locus(0)
    C = codec(1)
    key = C.eta_bits[0] + C.deta_bits[0]
    assert _nu_block(X, [key], _canonical_nu_slots(X)) == \
        [{key + C.hbar: 1, C.hbar: -1}]
    assert nu_eigen_analysis(X, 1, 2, 2)["eigenvalues"] == [1]


def test_chain_identity_unit_word_reduces_to_residual_definition():
    rng = random.Random(22)
    X = corpus_locus(4)
    delta = random_quantisation(rng, X.m)
    w = _word(X.m, unit_key(X.m), unit_key(X.m))
    assert check_chain_identity(w, delta, X).is_zero()


def test_chain_identity_length_one():
    rng = random.Random(23)
    X = corpus_locus(4)
    for _ in range(10):
        delta = random_quantisation(rng, X.m)
        a = random_element(rng, X.m)
        assert check_chain_identity(dr_of(a), delta, X).is_zero()


def _chain_cases(rng):
    """(X, w, Delta) for m = 1, 2: the canonical Delta, which is
    Maurer-Cartan, and a random one with a term eta_1 d_y_1^2 that makes
    the residual nonzero; w a cup of a 1-form and a length-1 word, plus
    2 y_1 (x) eta_1 (x) y_1."""
    cases = []
    for index in (0, 4):
        X = corpus_locus(index)
        m = X.m
        spoiler = Operator(m, {((0,) * m, (1,), (2,) + (0,) * (m - 1), ()): 1})
        rand = random_quantisation(rng, m)
        for delta in (bv_quantisation(X),
                      Quantisation(m, {2: hbar_component(rand, 1) + spoiler,
                                       3: hbar_component(rand, 2)})):
            pieces = [random_element(rng, m, nterms=2) for _ in range(2)]
            w = (cup(dr_d(pieces[0]), dr_of(pieces[1]))
                 + _word(m, _ykey(m, 1), _ekey(m, 1), _ykey(m, 1), coeff=2))
            cases.append((X, w, delta))
    assert [mc_residual(X, d).is_zero() for X, _, d in cases] == \
        [True, False, True, False]
    return cases


def test_chain_residual_carries_a_perturbed_dw_as_minus_its_mu(monkeypatch):
    """The residual is one store, so a word v added to Dw must come out as
    exactly -mu(v): with kappa = 0 and without."""
    rng = random.Random(31)
    real = derham.dr_total_d
    for X, w, delta in _chain_cases(rng):
        v = (cup(dr_of(random_element(rng, X.m, nterms=2, with_hbar=True)),
                 dr_d(random_element(rng, X.m, nterms=2)))
             + _word(X.m, _ykey(X.m, 1), _ekey(X.m, 1), hexp=1, coeff=-3))
        want = -mu(v, delta, X)
        assert not want.is_zero()
        monkeypatch.setattr(derham, "dr_total_d",
                            lambda X, w, v=v: real(X, w) + v)
        assert check_chain_identity(w, delta, X) == want
        monkeypatch.undo()
        assert check_chain_identity(w, delta, X).is_zero()


def test_chain_residual_carries_a_perturbed_kappa_as_minus_its_nu(monkeypatch):
    """kappa + rho in place of the master-equation residual must leave
    exactly -nu(w, Delta, rho), with kappa = 0 and without."""
    rng = random.Random(32)
    real = derham.mc_residual
    for X, w, delta in _chain_cases(rng):
        rho = sum((random_homogeneous_operator(rng, X.m, rng.randint(0, 2), d)
                   for d in (0, 1, 2)), Operator.zero(X.m))
        want = -nu(w, delta, rho, X)
        assert not want.is_zero()
        monkeypatch.setattr(derham, "mc_residual",
                            lambda X, d, rho=rho: real(X, d) + rho)
        assert check_chain_identity(w, delta, X) == want
        monkeypatch.undo()


def test_chain_identity_builds_each_block_once(monkeypatch):
    """One block table serves the traversal of w and that of Dw: each
    distinct factor a != 1 that a word of either has before its last
    factor gets its block a o Delta from one product, and no other product
    of a alone with Delta is taken."""
    rng = random.Random(33)
    for X, w, delta in _chain_cases(rng):
        w = w + cup(dr_of(Element.y(X.m, 1)), w)
        D = list(delta.terms.items())
        factors = {a for word in (w, dr_total_d(X, w))
                   for _, ws in word.terms for a in ws[:-1]} - {0}
        built = []
        real = derham._times

        def spying(left, right, C):
            if right == D and len(left) == 1 and left[0][1] == 1:
                built.append(left[0][0])
            return real(left, right, C)

        monkeypatch.setattr(derham, "_times", spying)
        assert check_chain_identity(w, delta, X).is_zero()
        monkeypatch.undo()
        assert sorted(built) == sorted(factors)


def test_integer_inputs_give_integer_primitive_slots():
    """On integer words and Delta the slots hold no Fraction, and each
    right factor is primitive: integers of gcd 1, positive on its least
    key."""
    rng = random.Random(34)
    cases = [(X, w + cup(dr_of(Element.y(X.m, 1).scale(6)), w), delta)
             for X, w, delta in _chain_cases(rng)]
    cases += [(corpus_locus(i), canonical_symplectic(corpus_locus(i)),
               bv_quantisation(corpus_locus(i))) for i in (0, 4, 7)]
    for X, w, delta in cases:
        slots, mu_w = _nu_slots(w, delta)
        assert slots
        for _, left, right in slots:
            assert all(type(c) is int for _, c in left + list(right))
            assert [k for k, _ in right] == sorted(k for k, _ in right)
            assert right[0][1] > 0 and gcd(*[c for _, c in right]) == 1
        assert all(type(c) is int for c in mu_w.terms.values())


def test_chain_map_when_maurer_cartan():
    """With a vanishing residual, mu intertwines D and the centre
    differential."""
    rng = random.Random(24)
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    for _ in range(10):
        a = random_element(rng, X.m, nterms=1)
        b = random_element(rng, X.m, nterms=1)
        w = cup(dr_d(a), dr_of(b))
        lhs = mu(dr_total_d(X, w), bv, X)
        rhs = centre_differential(X, bv, mu(w, bv, X))
        assert lhs == rhs


def _shift_hbar(w, n):
    """The word times hbar^n."""
    return DRWord._from_store(
        w.m, {(e + n, ws): c for (e, ws), c in w.terms.items()},
        w.hodge_weight)


def test_mu_filtration_bound_random():
    """mu of a weight-p word shifted by hbar^i lands in the convolution
    level p + 2i: order <= e for e >= q and <= 2e - q below."""
    rng = random.Random(25)
    X = corpus_locus(4)
    m = X.m
    bv = bv_quantisation(X)
    for _ in range(15):
        parts = [dr_d(random_element(rng, m, nterms=1)) for _ in range(2)]
        w = cup(parts[0], parts[1])
        i = rng.randint(0, 2)
        w = _shift_hbar(w, i)
        q = w.hodge_weight + 2 * i
        image = mu(w, bv, X)
        for e in image.hbar_exponents():
            comp = hbar_component(image, e)
            bound = e if e >= q else 2 * e - q
            assert max(codec(m).order(k) for k in comp.terms) <= bound


def test_compatibility_exact_for_canonical_pair():
    for idx in (0, 4, 7):
        X = corpus_locus(idx)
        verdict = check_compatibility(canonical_symplectic(X),
                                      bv_quantisation(X), X,
                                      SearchWindow(3, 3, 5))
        assert verdict.kind == CompatVerdict.EXACT


def test_compatibility_zero_delta():
    X = corpus_locus(4)
    verdict = check_compatibility(canonical_symplectic(X),
                                  Quantisation.zero(X.m), X,
                                  SearchWindow(3, 3, 5))
    # both sides vanish identically, which the checker reports as the
    # strict equality verdict (a zero witness and exact equality coincide)
    assert verdict.ok()
    assert verdict.kind == CompatVerdict.EXACT


def test_compatibility_zero_form_finds_euler_witness():
    """For quasi-homogeneous f the canonical tangent is itself exact: the
    weighted Euler operator bounds it, so omega = 0 is compatible with a
    coboundary witness (found by the exact solver and verified here)."""
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    verdict = check_compatibility(DRWord.zero(X.m, 2), bv, X,
                                  SearchWindow(order_cap=2, ydeg_cap=2,
                                               hbar_max=4))
    assert verdict.kind == CompatVerdict.COBOUNDARY
    residual = mu(DRWord.zero(X.m, 2), bv, X) - sigma_tangent(bv).eps_as_series()
    assert centre_differential(X, bv, verdict.witness) == residual


def test_compatibility_fails_in_tiny_window():
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    verdict = check_compatibility(DRWord.zero(X.m, 2), bv, X,
                                  SearchWindow(order_cap=0, ydeg_cap=0,
                                               hbar_max=2))
    assert verdict.kind == CompatVerdict.FAILS
    assert verdict.residual == -sigma_tangent(bv).eps_as_series()
    assert verdict.witness is None and not verdict.ok()


def test_compatibility_window_hbar_costs_nothing_per_shift():
    """hbar is not a packed field, so a window's hbar_max has no upper
    bound, and the search allocates nothing per hbar shift: hbar_max 10^6
    on x^3+y^3 with omega = 0 answers Fails, as the tiny window does,
    within a tracemalloc peak of 5 MB (a list of the 10^6 shifts alone
    took 48 MB)."""
    X = corpus_locus(4)
    bv = bv_quantisation(X)
    tracemalloc.start()
    try:
        verdict = check_compatibility(DRWord.zero(X.m, 2), bv, X,
                                      SearchWindow(0, 0, 10 ** 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.kind == CompatVerdict.FAILS
    assert verdict.residual == -sigma_tangent(bv).eps_as_series()
    assert peak < 5 * 2 ** 20, peak


def _reference_search(omega, delta, X, window):
    """The coboundary search assembled as a reference: one centre
    differential per unknown (key, e), then dense rows; returns the verdict
    kind and the witness store."""
    r = mu(omega, delta, X) - sigma_tangent(delta).eps_as_series()
    C = codec(X.m)
    candidates = []
    for d in sorted({dd - 1 for dd in r.degrees()}):
        candidates.extend(k for k in operator_keys_in_window(
            X, window.order_cap, window.ydeg_cap) if C.degree(k) == d)
    unknowns = [key + (e << C.hbar_shift) for key in candidates
                for e in range(window.hbar_max + 1)]
    total = koszul_operator(X) + delta
    images = [op_commutator(total, Operator._from_store(X.m, {u: 1})).terms
              for u in unknowns]
    row_keys = list(dict.fromkeys([k for img in images for k in img]
                                  + list(r.terms)))
    dense = [[img.get(k, 0) for img in images] for k in row_keys]
    rhs = {i: r.terms[k] for i, k in enumerate(row_keys) if k in r.terms}
    sol = solve_rational(sparse_rows(dense), rhs, len(unknowns))
    if sol is None:
        return CompatVerdict.FAILS, None
    return CompatVerdict.COBOUNDARY, {unknowns[c]: v
                                      for c, v in sorted(sol.items())}


_HALF_X3_TWO_THIRDS_Y3 = (Element.y(2, 1) ** 3).scale(Fraction(1, 2)) \
    + (Element.y(2, 2) ** 3).scale(Fraction(2, 3))


@pytest.mark.parametrize("f, window, kind", [
    (Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3,
     SearchWindow(order_cap=2, ydeg_cap=2, hbar_max=4),
     CompatVerdict.COBOUNDARY),
    (_HALF_X3_TWO_THIRDS_Y3, SearchWindow(order_cap=2, ydeg_cap=2, hbar_max=4),
     CompatVerdict.COBOUNDARY),
    (Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3,
     SearchWindow(order_cap=2, ydeg_cap=0, hbar_max=4), CompatVerdict.FAILS),
], ids=["x3y3-hbar0..4", "half-x3-two-thirds-y3", "refusing-window"])
def test_witness_search_matches_reference_assembly(f, window, kind):
    """One image per operator key, shifted across the hbar window, gives
    the verdict and the witness of the per-(key, e) dense assembly, and
    every witness is checked against the centre differential."""
    X = make_crit_locus(f, 2)
    bv = bv_quantisation(X)
    omega = DRWord.zero(X.m, 2)
    verdict = check_compatibility(omega, bv, X, window)
    ref_kind, ref_witness = _reference_search(omega, bv, X, window)
    assert verdict.kind == ref_kind == kind
    if kind == CompatVerdict.COBOUNDARY:
        assert verdict.witness.terms == ref_witness
        residual = mu(omega, bv, X) - sigma_tangent(bv).eps_as_series()
        assert centre_differential(X, bv, verdict.witness) == residual
    else:
        assert verdict.witness is None


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _per_key_system(omega, delta, X, window):
    """The coboundary search's linear system assembled with one commutator
    per window key, its rows in the order the search adds them: the oracle
    for the banded assembly.  Returns the rows, the right-hand side and the
    unknowns.  The residual is read through ``derham``, as the search reads
    it."""
    r = derham.mu(omega, delta, X) - sigma_tangent(delta).eps_as_series()
    C = codec(X.m)
    degrees = {d - 1 for d in r.degrees()}
    keyed = [(C.degree(k), k) for k in operator_keys_in_window(
        X, window.order_cap, window.ydeg_cap) if C.degree(k) in degrees]
    candidates = [k for _, k in sorted(keyed, key=lambda dk: dk[0])]
    shifts = [e << C.hbar_shift for e in range(window.hbar_max + 1)]
    total = koszul_operator(X) + delta
    rows = {k: {} for k in r.terms}
    for ki, key in enumerate(candidates):
        image = op_commutator(total, Operator._from_store(X.m, {key: 1}))
        for col, h in enumerate(shifts, ki * len(shifts)):
            for ikey, q in image.terms.items():
                rows.setdefault(ikey + h, {})[col] = q
    unknowns = [key + h for key in candidates for h in shifts]
    return list(rows.values()), dict(enumerate(r.terms.values())), unknowns


def _witness_jobs(monkeypatch):
    """(name, X, window, expected verdict) for every witness window of the
    benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    problems = workloads.load_problems({n for n, _, _ in workloads.WITNESS_JOBS})
    return [(name, problems[name].crit_locus(), SearchWindow(*window), kind)
            for name, window, kind in workloads.WITNESS_JOBS]


def _search_against_whole_system(monkeypatch, omega, delta, X, window):
    """Run the witness search and check it against the whole per-key
    system: the solver is handed exactly the rows of b's component
    (``component``), the residual's rows first and in its order, the rest in
    any order, with b and the column count unchanged; and ``full_solve`` on
    every row of the per-key system gives the search's verdict and witness
    store.  Returns the verdict, the number of rows handed over and the
    per-key system."""
    systems = []

    def recording(rows, rhs, ncols):
        systems.append((rows, rhs, ncols))
        return solve_rational(rows, rhs, ncols)

    with monkeypatch.context() as patch:
        patch.setattr(derham, "solve_rational", recording)
        verdict = check_compatibility(omega, delta, X, window)
    system = rows, rhs, unknowns = _per_key_system(omega, delta, X, window)
    if verdict.kind == CompatVerdict.EXACT:
        assert not systems and not rhs
        return verdict, 0, system
    (got_rows, got_rhs, ncols), = systems
    reached, _ = component(rows, rhs)
    first = len(rhs)  # b is nonzero on each of the residual's rows
    assert got_rows[:first] == [rows[i] for i in reached[:first]]
    assert Counter(frozenset(row.items()) for row in got_rows[first:]) == \
        Counter(frozenset(rows[i].items()) for i in reached[first:])
    assert got_rhs == {j: rhs[i] for j, i in enumerate(reached) if i in rhs}
    assert ncols == len(unknowns)
    sol = full_solve(rows, rhs, len(unknowns))
    if sol is None:
        assert verdict.kind == CompatVerdict.FAILS and verdict.witness is None
    else:
        assert verdict.kind == CompatVerdict.COBOUNDARY
        assert list(verdict.witness.terms.items()) == \
            [(u, v) for u, v in zip(unknowns, sol) if v]
    return verdict, len(got_rows), system


def test_banded_witness_search_matches_per_key_search(monkeypatch):
    """On every witness window of the benchmark, the search hands the solver
    b's component of the per-key system and reports the verdict and the
    witness store of the whole system."""
    for name, X, window, kind in _witness_jobs(monkeypatch):
        verdict, _, _ = _search_against_whole_system(
            monkeypatch, DRWord.zero(X.m, 2), bv_quantisation(X), X, window)
        assert verdict.kind == kind


def test_witness_search_solves_only_the_reached_block(monkeypatch):
    """Beyond the benchmark, on x^3+y^3+z^3 at (2, 2, 4) and (3, 3, 5), the
    search gives the whole per-key system's verdict and witness from b's
    component alone; for x^3+y^5 at (2, 2, 4) it hands over at most 40 of
    the 1,023 rows."""
    X = make_crit_locus(Element.y(3, 1) ** 3 + Element.y(3, 2) ** 3
                        + Element.y(3, 3) ** 3, 3)
    for window in ((2, 2, 4), (3, 3, 5)):
        verdict, handed, (rows, _, _) = _search_against_whole_system(
            monkeypatch, DRWord.zero(3, 2), bv_quantisation(X), X,
            SearchWindow(*window))
        assert verdict.kind == CompatVerdict.COBOUNDARY
        assert handed < len(rows)
    [(X, window)] = [(X, window) for name, X, window, _ in
                     _witness_jobs(monkeypatch)
                     if name == "x3y5" and window.ydeg_cap == 2]
    _, handed, (rows, _, _) = _search_against_whole_system(
        monkeypatch, DRWord.zero(2, 2), bv_quantisation(X), X, window)
    assert len(rows) == 1023 and handed <= 40


_SEARCH_LOCI = [
    (Element.y(1, 1) ** 3, 1),
    ((Element.y(1, 1) ** 3).scale(Fraction(1, 2)), 1),
    (Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2),
    (_HALF_X3_TWO_THIRDS_Y3, 2),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(_SEARCH_LOCI),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.booleans())
def test_witness_search_matches_component_on_random_quantisations(
        seed, locus, order_cap, ydeg_cap, hbar_max, coboundary):
    """On random quantisations at m = 1 and 2, among them on
    f = 1/2 x^3 + 2/3 y^3 whose rows carry Fraction entries, the search
    hands the solver b's component of the per-key system and reports the
    whole system's verdict and witness.  The residual is mu - sigma, or
    (``coboundary``) the image of a random operator of the window, which
    the search must find.  The assembly never uses the master equation, so
    that check is stubbed out."""
    f, m = locus
    X = make_crit_locus(f, m)
    rng = random.Random(seed)
    delta = random_quantisation(rng, m)
    window = SearchWindow(order_cap, ydeg_cap, hbar_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derham, "mc_residual", lambda X, delta: Operator.zero(m))
        if coboundary:
            keys = operator_keys_in_window(X, order_cap, ydeg_cap)
            u = Operator._from_store(m, {
                rng.choice(keys) + (rng.randint(0, hbar_max) << codec(m).hbar_shift):
                rng.choice([1, -2, Fraction(1, 3)]) for _ in range(2)})
            image = op_commutator(koszul_operator(X) + delta, u)
            # mu - sigma is then the image of u
            patch.setattr(derham, "mu", lambda omega, delta, X: image
                          + sigma_tangent(delta).eps_as_series())
        verdict, _, _ = _search_against_whole_system(
            patch, DRWord.zero(m, 2), delta, X, window)
    if coboundary and not image.is_zero():
        assert verdict.kind == CompatVerdict.COBOUNDARY


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(1, 4))
def test_source_lookup_names_every_source(seed, m, order_cap, ydeg_cap, n):
    """From a row key k, the lookup names every (i, e), 0 <= e < n, with
    k - e hbar a key of [total, u_i], and no e >= n, for total =
    delta_Koszul of a random f + a random quantisation + a random operator
    with hbar, plus (m >= 2) a term on every variable, over the window of
    caps (order_cap, ydeg_cap) in every degree, from image keys of window
    candidates shifted by hbar^e, e = 0 .. n, and from random keys."""
    rng = random.Random(seed)
    f = Element(m, {(tuple(rng.randint(0, 3) for _ in range(m)), ()):
                    rng.choice([1, -2, Fraction(1, 3)]) for _ in range(3)})
    if not f.terms:
        f = Element.y(m, 1) ** 2
    X = make_crit_locus(f, m)
    total = (koszul_operator(X) + random_quantisation(rng, m, max_ydeg=2)
             + random_operator(rng, m, max_order=3, nterms=3, with_hbar=True))
    if m >= 2:
        one = (1,) + (0,) * (m - 1)
        total = total + Operator(m, {(one, tuple(range(2, m + 1)), one, (1,)): 1})
    C = codec(m)
    for d in range(-m, m + 1):
        keys = operator_keys_in_window(X, order_cap, ydeg_cap, degree=d)
        if not keys:
            continue
        images = [op_commutator(total, Operator._from_store(m, {u: 1})).terms
                  for u in keys]
        named = {}  # image key: the candidates whose image has it
        for i, image in enumerate(images):
            for k in image:
                named.setdefault(k, []).append(i)
        rows = {k + (e << C.hbar_shift) for i in rng.sample(
            range(len(keys)), min(4, len(keys))) for k in images[i]
            for e in range(n + 1)}
        for _ in range(20):
            rows.add(C.encode(
                tuple(rng.randint(0, 4) for _ in range(m)),
                tuple(i for i in range(1, m + 1) if rng.random() < 0.5),
                tuple(rng.randint(0, 3) for _ in range(m)),
                tuple(i for i in range(1, m + 1) if rng.random() < 0.5),
                rng.randint(0, n + 1)))
        sources = derham._source_lookup(total, keys, n)
        for k in rows:
            found = sources(k)
            assert {(i, e) for e in range(n)
                    for i in named.get(k - (e << C.hbar_shift), ())} <= found
            assert all(e < n for _, e in found)


def test_witness_search_images_only_the_named_candidates(monkeypatch):
    """The search computes a candidate's image only when a row it reaches
    names it, and each at most once: x^3+y^5 at (2, 2, 4) images at most 20
    of its 114 candidates, and x^3+y^3+z^3 at (4, 4, 6) at most 600 of its
    10,815."""
    imaged, ncols = [], []

    def spy(m, keys, *args):
        imaged.extend(keys)
        return _banded_images(m, keys, *args)

    def solve(rows, rhs, n):
        ncols.append(n)
        return solve_rational(rows, rhs, n)

    monkeypatch.setattr(derham, "_banded_images", spy)
    monkeypatch.setattr(derham, "solve_rational", solve)
    y2, y3 = Element.y(2, 2), Element.y(3, 3)
    cases = [(Element.y(2, 1) ** 3 + y2 ** 5, (2, 2, 4), 114, 20),
             (Element.y(3, 1) ** 3 + Element.y(3, 2) ** 3 + y3 ** 3,
              (4, 4, 6), 10815, 600)]
    for f, window, count, bound in cases:
        imaged.clear()
        ncols.clear()
        X = make_crit_locus(f, f.m)
        verdict = check_compatibility(DRWord.zero(f.m, 2), bv_quantisation(X),
                                      X, SearchWindow(*window))
        assert verdict.kind == CompatVerdict.COBOUNDARY
        assert ncols == [count * (window[2] + 1)]
        assert len(set(imaged)) == len(imaged) <= bound


def test_fails_verdicts_have_a_small_dual_certificate(monkeypatch):
    """Each Fails window's system is inconsistent, shown by a dual vector y
    on b's component alone: y^T A = 0 and y^T b = 1, both checked by direct
    multiplication over the whole per-key system.  The component is 2 to 4
    rows."""
    fails = [job for job in _witness_jobs(monkeypatch)
             if job[3] == CompatVerdict.FAILS]
    assert len(fails) == 6
    for name, X, window, kind in fails:
        omega, bv = DRWord.zero(X.m, 2), bv_quantisation(X)
        verdict, _, (rows, rhs, unknowns) = _search_against_whole_system(
            monkeypatch, omega, bv, X, window)
        assert verdict.kind == kind and verdict.witness is None
        reached, cols = component(rows, rhs)
        assert 2 <= len(reached) <= 4
        # the transposed system: one equation per column of the component,
        # and y^T b = 1 last
        dual = [{j: rows[i][c] for j, i in enumerate(reached) if rows[i].get(c)}
                for c in sorted(cols)]
        dual.append({j: rhs[i] for j, i in enumerate(reached) if rhs.get(i)})
        y = full_solve(dual, {len(dual) - 1: 1}, len(reached))
        assert y is not None
        y = dict(zip(reached, y))
        for c in range(len(unknowns)):
            assert sum(y.get(i, 0) * row.get(c, 0)
                       for i, row in enumerate(rows)) == 0
        assert sum(y.get(i, 0) * b for i, b in rhs.items()) == 1


def test_wrong_witness_is_refused(monkeypatch):
    """A solution that does not solve the system is refused with
    NotCertified instead of being reported: the solver's answer doubled,
    whose image is twice the nonzero residual, and its answer wrong in one
    entry alone by 1/5, which gives the check's common denominator a new
    factor 5."""
    X = corpus_locus(4)
    for spoil in (lambda sol, c: {k: 2 * v for k, v in sol.items()},
                  lambda sol, c: {**sol, c: sol[c] + Fraction(1, 5)}):
        def spoiled(rows, rhs, ncols):
            sol = solve_rational(rows, rhs, ncols)
            return spoil(sol, min(sol))

        monkeypatch.setattr(derham, "solve_rational", spoiled)
        with pytest.raises(NotCertified):
            check_compatibility(DRWord.zero(X.m, 2), bv_quantisation(X), X,
                                SearchWindow(order_cap=2, ydeg_cap=2,
                                             hbar_max=4))


def test_witness_search_probes_each_assembled_row_once(monkeypatch):
    """The row probe that ``_source_lookup`` returns runs once per row the
    search assembles, never twice on one row, on every witness window of
    the benchmark and on x^3+y^3+z^3 at (4, 4, 6)."""
    probed, handed = [], []
    real_lookup = derham._source_lookup

    def lookup(*args):
        sources = real_lookup(*args)

        def spy(k):
            probed.append(k)
            return sources(k)
        return spy

    def solve(rows, rhs, ncols):
        handed.append(len(rows))
        return solve_rational(rows, rhs, ncols)

    monkeypatch.setattr(derham, "_source_lookup", lookup)
    monkeypatch.setattr(derham, "solve_rational", solve)
    X3 = make_crit_locus(Element.y(3, 1) ** 3 + Element.y(3, 2) ** 3
                         + Element.y(3, 3) ** 3, 3)
    jobs = [(X, window) for _, X, window, _ in _witness_jobs(monkeypatch)]
    for X, window in jobs + [(X3, SearchWindow(4, 4, 6))]:
        probed.clear()
        handed.clear()
        check_compatibility(DRWord.zero(X.m, 2), bv_quantisation(X), X,
                            window)
        assert len(set(probed)) == len(probed) == sum(handed) > 0


def test_banded_images_match_per_key_images():
    """Read back from their bands, the images of one banded call are the
    images of one call per key, term for term and in the same order:
    commutators with delta + Delta where Delta has a Delta_3 (an hbar^2
    term), and nu on words with hbar exponents up to 4, so that the band
    width K is above 2.  The unit key's commutator is zero, an empty
    band."""
    rng = random.Random(41)
    for trial in range(8):
        m = 1 + trial % 2
        X = corpus_locus(4 if m == 2 else 0)
        shift = codec(m).hbar_shift
        delta = random_quantisation(rng, m)
        while len(levels(delta)) < 2:
            delta = random_quantisation(rng, m)
        keys = operator_keys_in_window(X, 2, 1)
        total = koszul_operator(X) + delta
        exps = total.hbar_exponents()
        assert max(exps) - min(exps) + 1 > 2
        images = _banded_images(m, keys, lambda u: op_commutator(total, u),
                                total.terms)
        per_key = [op_commutator(total, Operator._from_store(m, {k: 1})).terms
                   for k in keys]
        assert [list(image.items()) for image in images] == \
            [list(image.items()) for image in per_key]
        assert images[keys.index(0)] == {}

        w = _random_word(rng, m, 2 + trial % 3)
        slots, _ = _nu_slots(w + _shift_hbar(w, 2), delta)
        lefts = [k >> shift for _, left, _ in slots for k, _ in left]
        rights = [k >> shift for _, _, right in slots for k, _ in right]
        assert max(lefts) + max(rights) - min(lefts) - min(rights) + 1 > 2
        images = _banded_images(m, keys, lambda rho: _nu_apply(slots, rho),
                                [k for _, left, _ in slots for k, _ in left],
                                [k for _, _, right in slots for k, _ in right])
        per_key = [_nu_apply(slots, Operator._from_store(m, {k: 1})).terms
                   for k in keys]
        assert images == per_key


def test_compatibility_requires_maurer_cartan():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    spurious = Operator(1, {((0,), (1,), (2,), ()): HSeries.const(1)})
    delta = Quantisation(1, {2: levels(bv_quantisation(X))[2] + spurious})
    with pytest.raises(NotMaurerCartan):
        check_compatibility(canonical_symplectic(X), delta, X,
                            SearchWindow(3, 3, 5))


_NON_INTEGRAL = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2),
                                 Fraction(5, 7)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), q=_NON_INTEGRAL, r=_NON_INTEGRAL)
def test_identities_on_non_integral_coefficients(seed, q, r):
    """The benchmark draws integers only; here f, the word, Delta and the
    operators are scaled by non-integral rationals, and the chain identity,
    the Schouten bracket against the commutator of lifts, and op_compose
    against the op_apply reference still hold exactly."""
    rng = random.Random(seed)
    m = rng.randint(1, 2)
    f = (Element.y(m, 1) ** 3 + Element.y(m, m) ** 2).scale(q)
    X = make_crit_locus(f, m)
    delta = random_quantisation(rng, m)
    delta = Quantisation(m, {j: op.scale(r) for j, op in levels(delta).items()})
    pieces = [random_element(rng, m, nterms=1).scale(r) for _ in range(2)]
    w = cup(dr_d(pieces[0]), dr_of(pieces[1])).scale(q)
    assert check_chain_identity(w, delta, X).is_zero()
    p1, p2 = rng.randint(1, 2), rng.randint(1, 2)
    P = random_polyvector(rng, m, p1).scale(q)
    Q = random_polyvector(rng, m, p2).scale(r)
    assert schouten(P, Q) == symbol(op_commutator(P.lift(), Q.lift()), p1 + p2 - 1)
    D1 = random_operator(rng, m, with_hbar=True).scale(q)
    D2 = random_operator(rng, m, with_hbar=True).scale(r)
    a = random_element(rng, m, nterms=3, with_hbar=True).scale(q)
    assert op_apply(op_compose(D1, D2), a) == op_apply(D1, op_apply(D2, a))


def _fermat(m):
    return make_crit_locus(sum((Element.y(m, i) ** 3
                                for i in range(1, m + 1)), Element.zero(m)), m)


def _dy1(m):
    return Operator(m, {((0,) * m, (), (1,) + (0,) * (m - 1), ()): 1})


@pytest.mark.parametrize("call", [
    lambda X: cup(DRWord.zero(2), DRWord.zero(1)),
    lambda X: dr_total_d(X, DRWord.zero(1)),
    lambda X: mc_residual(_fermat(1), bv_quantisation(X)),
    lambda X: Quantisation(2, {2: Operator(1, {((0,), (), (1,), (1,)): 1})}),
    lambda X: mu(canonical_symplectic(_fermat(1)), bv_quantisation(X), X),
    lambda X: nu(canonical_symplectic(_fermat(1)), bv_quantisation(X),
                 _dy1(2), X),
    lambda X: check_chain_identity(canonical_symplectic(X),
                                   bv_quantisation(_fermat(1)), X),
    lambda X: check_compatibility(canonical_symplectic(X), bv_quantisation(X),
                                  _fermat(1), SearchWindow(1, 1, 3)),
    lambda X: centre_differential(X, bv_quantisation(_fermat(1)), _dy1(2)),
], ids=["cup", "dr_total_d", "mc_residual", "Quantisation", "mu", "nu",
        "check_chain_identity", "check_compatibility", "centre_differential"])
def test_words_refuse_a_bad_signature(call):
    """``cup`` refuses words of different m, and ``dr_total_d`` a word
    whose m is not the locus's; every entry point that combines a locus, a
    Delta, a word or an operator, and ``Quantisation`` with a level, refuses
    values of different m, before it reads a key of one in the layout of
    another."""
    X = _fermat(2)
    with pytest.raises(ValueError) as err:
        call(X)
    assert str(err.value) == "signature mismatch"


def test_nu_of_the_zero_operator_is_zero():
    """nu(w, Delta, 0) = 0: nu is linear in the substituted operator."""
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    zero = nu(canonical_symplectic(X), bv_quantisation(X), Operator.zero(2), X)
    assert zero.m == 2 and zero.is_zero()
