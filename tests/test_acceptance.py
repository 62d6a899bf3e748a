"""Acceptance suite: every criterion is exercised at its stated tolerance
(exact equality throughout) and prints one pass/fail line.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import os
import random
import time

import pytest

jsonschema = pytest.importorskip("jsonschema")

from qshift.cli import parse_problem, run_command, Report
from qshift.coefficients import HSeries, codec
from qshift.cohomology import milnor_number, twisted_derham_dims
from qshift.derham import (CompatVerdict, SearchWindow, canonical_symplectic,
                           check_chain_identity, check_compatibility, cup,
                           dr_d, dr_of)
from qshift.diffops import Operator, op_compose, op_order, schouten, symbol
from qshift.duality import is_self_dual, solve_sign_profile, transpose
from qshift.gca import Element, make_crit_locus
from qshift.quantise import (Quantisation, bv_quantisation, mc_residual,
                             nu_eigen_analysis)

from schouten_oracle import pv_mul_closed_form, schouten_by_words

from conftest import (CORPUS, arity_keys, degree_part, filtration_table,
                      levels, print_problem, random_element,
                      random_polyvector, random_quantisation,
                      star_fixed_slot_dimension)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, name


def _corpus_loci():
    return [(name, make_crit_locus(builder(), m), mu)
            for (name, builder, m, mu) in CORPUS]


# ---------------------------------------------------------------------------
# Criterion 1: quantum master equation, exact zero, < 1 s per corpus member
# ---------------------------------------------------------------------------

def test_acceptance_quantum_master_equation():
    worst = 0.0
    for name, X, _ in _corpus_loci():
        t0 = time.monotonic()
        residual = mc_residual(X, bv_quantisation(X))
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert residual.is_zero(), f"nonzero residual for {name}"
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    _report("quantum master equation: residual 0 on the corpus",
            True, f"worst {worst * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 2: compatibility on the nose, m <= 3, < 5 s
# ---------------------------------------------------------------------------

def test_acceptance_compatibility_exact():
    worst = 0.0
    for name, X, _ in _corpus_loci():
        t0 = time.monotonic()
        verdict = check_compatibility(canonical_symplectic(X),
                                      bv_quantisation(X), X,
                                      SearchWindow(3, 3, 5))
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert verdict.kind == CompatVerdict.EXACT, name
        assert elapsed < 5.0, f"{name} took {elapsed:.3f}s"
    _report("compatibility: exact cocycle equality for the canonical pair",
            True, f"worst {worst * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 3: vanishing-cycle dimensions, exact integers, < 30 s each
# ---------------------------------------------------------------------------

def test_acceptance_vanishing_cycles():
    pinned = {"x^3+y^3": 4, "x^3+y^5": 8, "x^2+y^2+z^2": 1,
              "x^2": 1, "x^3": 2, "x^4": 3}
    cases = list(_corpus_loci())
    for k in (4, 5):
        f = Element.y(1, 1) ** (k + 1)
        cases.append((f"x^{k + 1}", make_crit_locus(f, 1), k))
        pinned[f"x^{k + 1}"] = k
    worst = 0.0
    for name, X, mu in cases:
        t0 = time.monotonic()
        report = twisted_derham_dims(X)
        oracle = milnor_number(X)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert oracle == mu, f"oracle disagrees for {name}"
        assert report["total"] == oracle, \
            f"{name}: {report['total']} != {oracle}"
        assert len(report["dims"]) <= 1, f"{name} not concentrated"
        if name in pinned:
            assert report["total"] == pinned[name]
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    _report("vanishing cycles: twisted de Rham dims equal Milnor numbers",
            True, f"worst {worst * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 4: the chain identity, >= 200 randomized instances, exact zero
# ---------------------------------------------------------------------------

def _random_word(rng, m):
    pieces = []
    for _ in range(rng.randint(1, 3)):
        a = random_element(rng, m, max_ydeg=1, nterms=1)
        if a.is_zero():
            a = Element.one(m)
        pieces.append(dr_d(a) if rng.random() < 0.6 else dr_of(a))
    w = pieces[0]
    for piece in pieces[1:]:
        w = cup(w, piece)
    return w


def _random_delta_maybe_non_mc(rng, m):
    delta = random_quantisation(rng, m, levels=(2, 3), max_ydeg=1)
    if rng.random() < 0.5:
        # inject a term with a generically nonzero master-equation residual
        i = rng.randint(1, m)
        spoiler = Operator(m, {((0,) * m, (i,),
                                tuple(2 if j == i - 1 else 0 for j in range(m)),
                                ()): HSeries.const(rng.randint(1, 3))})
        parts = levels(delta)
        parts[2] = parts.get(2, Operator.zero(m)) + spoiler
        delta = Quantisation(m, parts)
    return delta


def test_acceptance_chain_identity():
    rng = random.Random(101)
    loci = {1: make_crit_locus(Element.y(1, 1) ** 3, 1),
            2: make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)}
    non_mc = 0
    total = 200
    for trial in range(total):
        m = 1 if trial % 2 else 2
        X = loci[m]
        delta = _random_delta_maybe_non_mc(rng, m)
        if not mc_residual(X, delta).is_zero():
            non_mc += 1
        w = _random_word(rng, m)
        residual = check_chain_identity(w, delta, X)
        assert residual.is_zero(), f"trial {trial}"
    assert non_mc >= 40, f"only {non_mc} non-MC instances drawn"
    _report("chain identity: 200 randomized (word, Delta) instances",
            True, f"{non_mc} with nonzero master-equation residual")


# ---------------------------------------------------------------------------
# Criterion 5: Schouten/symbol coherence, >= 200 pairs, Jacobi and Leibniz
# ---------------------------------------------------------------------------

def _pv_degree(P):
    degs = {codec(P.m).degree(k) for k in P.terms}
    return degs.pop() if len(degs) == 1 else None


def test_acceptance_schouten_coherence():
    rng = random.Random(102)
    pairs = 0
    while pairs < 200:
        m = rng.randint(1, 2)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        P = random_polyvector(rng, m, p)
        Q = random_polyvector(rng, m, q)
        if P.is_zero() or Q.is_zero():
            continue
        assert schouten(P, Q) == schouten_by_words(P, Q)
        pairs += 1
    jacobi = leibniz = 0
    while jacobi < 60 or leibniz < 60:
        m = rng.randint(1, 2)
        P = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        Q = random_polyvector(rng, m, rng.randint(1, 2), nterms=1)
        R = random_polyvector(rng, m, rng.randint(0, 2), nterms=1)
        if P.is_zero() or Q.is_zero() or R.is_zero():
            continue
        dp, dq = _pv_degree(P), _pv_degree(Q)
        if dp is None or dq is None:
            continue
        s = -1 if (dp % 2) and (dq % 2) else 1
        assert schouten(P, schouten(Q, R)) == \
            schouten(schouten(P, Q), R) + schouten(Q, schouten(P, R)).scale(s)
        jacobi += 1
        assert schouten(P, pv_mul_closed_form(Q, R)) == \
            (pv_mul_closed_form(schouten(P, Q), R)
             + pv_mul_closed_form(Q, schouten(P, R)).scale(s))
        leibniz += 1
    _report("Schouten coherence: symbol of commutator = Leibniz expansion",
            True, f"{pairs} pairs, {jacobi} Jacobi, {leibniz} Leibniz")


# ---------------------------------------------------------------------------
# Criterion 6: self-duality
# ---------------------------------------------------------------------------

def test_acceptance_self_duality():
    rng = random.Random(103)
    for name, X, _ in _corpus_loci():
        solve_sign_profile(X)
        assert is_self_dual(bv_quantisation(X)).kind == "Strict", name
    X = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    from conftest import random_operator
    for _ in range(40):
        D1 = random_operator(rng, X.m, max_order=3)
        D2 = random_operator(rng, X.m, max_order=2)
        assert transpose(transpose(D1)) == D1
        for d1 in D1.degrees():
            for d2 in D2.degrees():
                p1, p2 = degree_part(D1, d1), degree_part(D2, d2)
                sign = -1 if (d1 % 2) and (d2 % 2) else 1
                assert transpose(op_compose(p1, p2)) == \
                    op_compose(transpose(p2), transpose(p1)).scale(sign)
    for p in range(5):
        found = 0
        while found < 15:
            D = random_operator(rng, X.m, max_order=p)
            if D.is_zero() or op_order(D) != p:
                continue
            assert symbol(transpose(D), p) == symbol(D, p).scale((-1) ** p)
            found += 1
    ydeg_cap = 1
    for j in range(2, 6):
        for k in range(0, j + 1):
            arity = j - k
            keys = arity_keys(X, arity, ydeg_cap)
            fixed, total = star_fixed_slot_dimension(X, j, k, keys)
            assert (fixed == total) if k % 2 == 0 else (fixed == 0), (j, k)
    _report("self-duality: strict fixed point, involution, (-1)^p rule, "
            "G-parity slots", True)


# ---------------------------------------------------------------------------
# Criterion 7: obstruction eigenvalues for p <= 4, k <= 4
# ---------------------------------------------------------------------------

def test_acceptance_obstruction_eigenvalues():
    X = make_crit_locus(Element.y(1, 1) ** 2, 1)
    X2 = make_crit_locus(Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3, 2)
    for p in range(5):
        for k in range(1, 5):
            rep = nu_eigen_analysis(X, p, k, 2)
            assert rep["eigenvalues"] == [p], (p, k, rep["eigenvalues"])
            assert rep["combined_scalar"] == 1 - k, (p, k)
            assert rep["invertible"] == (k >= 2), (p, k)
            assert rep["diagonalisable"]
    for (p, k) in ((1, 1), (2, 2), (4, 3)):
        rep = nu_eigen_analysis(X2, p, k, 1)
        assert rep["eigenvalues"] == [p]
        assert rep["combined_scalar"] == 1 - k
        assert rep["invertible"] == (k >= 2)
    _report("obstruction eigenvalues: value p, shift 1-k, invertible iff k >= 2",
            True)


# ---------------------------------------------------------------------------
# Criterion 8: filtration shapes on truncated windows, m <= 2
# ---------------------------------------------------------------------------

def _direct_count(m, ydeg_cap, order_bound, degree):
    """Independent enumeration of normal-ordered monomials."""
    if order_bound is None or order_bound < 0:
        return 0
    count = 0
    y_vectors = [v for v in itertools.product(range(ydeg_cap + 1), repeat=m)
                 if sum(v) <= ydeg_cap]
    subsets = [tuple(s) for r in range(m + 1)
               for s in itertools.combinations(range(1, m + 1), r)]
    d_vectors = [v for v in itertools.product(range(order_bound + 1), repeat=m)]
    for S in subsets:
        for T in subsets:
            for b in d_vectors:
                if sum(b) + len(T) > order_bound:
                    continue
                if -len(S) + len(T) != degree:
                    continue
                count += len(y_vectors)
    return count


def test_acceptance_filtration_shapes():
    for (mname, midx) in (("x^2", 0), ("x^3+y^3", 4)):
        name, builder, m, _ = CORPUS[midx]
        X = make_crit_locus(builder(), m)
        ydeg_cap = 2
        ftilde = {}
        for p in (2, 3):
            table = filtration_table("Ftilde", 0, p, 4, X, ydeg_cap)
            assert list(table) == [(d, e) for d in range(-m, m + 1)
                                   for e in range(-1, 5)]
            ftilde[p] = table
            for (d, e), n in table.items():
                j = e + 1
                expected = _direct_count(m, 2, j if j >= p else None, d)
                assert n == expected, (p, d, e)
        for i in (1, 2):
            table = filtration_table("G", i, 2, 4, X, ydeg_cap)
            for (d, e), n in table.items():
                j = e + 1
                bound = j - i if j >= 2 else None
                assert n == _direct_count(m, 2, bound, d), (i, d, e)
        conv = filtration_table("GconvF", 2, 2, 4, X, ydeg_cap)
        for (d, e), n in conv.items():
            j = e + 1
            if j < 0:
                assert n == 0
                continue
            bound = j if j >= 2 else 2 * j - 2
            assert n == _direct_count(m, 2, bound, d), (d, e)
            # the direct-sum identity: conv^2 = functions + Ftilde^2
            a_dim = _direct_count(m, 2, 0, d) if e == 0 else 0
            assert n == ftilde[2][(d, e)] + a_dim, (d, e)
    _report("filtration shapes: product formulas and conv^2 = A + Ftilde^2",
            True)


# ---------------------------------------------------------------------------
# Criterion 9: parser and report round trips, schema, exit codes
# ---------------------------------------------------------------------------

def test_acceptance_parser_and_reports():
    schema_path = os.path.join(os.path.dirname(__file__), "..", "src",
                               "qshift", "report_schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    texts = ["vars x; f = x^2;", "vars x; f = x^3;", "vars x; f = x^4;",
             "vars x y; f = x^2 + y^2;", "vars x y; f = x^3 + y^3;",
             "vars x y; f = x^3 + y^5;", "vars x y; f = x^2 + y^3;",
             "vars x y z; f = x^2 + y^2 + z^2;", "vars x y; f = x^3 + x*y;"]
    for text in texts:
        problem = parse_problem(text)
        assert parse_problem(print_problem(problem)) == problem
        for cmd, flags in (("milnor", {}), ("check-mc", {}),
                           ("vc-dims", {}), ("check-selfdual", {}),
                           ("eigen", {"p": 1, "k": 2, "max_degree": 1})):
            report = run_command(cmd, problem, flags)
            jsonschema.validate(report.as_dict(), schema)
            assert report.status == "ok", (text, cmd, report.payload)
            assert report.exit_code == 0
    bad = run_command("vc-dims", parse_problem("vars x y; f = x^2*y;"), {})
    assert bad.status == "error" and bad.exit_code == 2
    jsonschema.validate(bad.as_dict(), schema)
    assert Report("check-mc", "fail", {"reason": "r"}).exit_code == 1
    _report("parser round trips, JSON schema, exit-code contract", True)
