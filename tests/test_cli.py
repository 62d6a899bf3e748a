import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from qshift import cli
from qshift.cli import (ProblemFile, Report, format_polynomial, main,
                        parse_problem, print_problem, run_command)
from qshift.coefficients import HSeries
from qshift.derham import CompatVerdict
from qshift.diffops import Operator
from qshift.duality import SelfDualVerdict
from qshift.errors import ParseError, UnknownVariable
from qshift.gca import Element

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qshift",
                           "report_schema.json")
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def test_parse_basic():
    p = parse_problem("vars x y; f = x^3 + y^3;")
    assert p.vars == ["x", "y"]
    assert p.f == Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3
    assert p.options == {}


def test_parse_rational_coefficient():
    p = parse_problem("vars x; f = 1/2 * x^4;")
    expected = Element.y(1, 1) ** 4
    assert p.f == expected.scale(Fraction(1, 2))


def test_parse_unknown_variable_position():
    with pytest.raises(UnknownVariable) as err:
        parse_problem("vars x; f = x + z;")
    assert err.value.line == 1
    assert err.value.col == 17


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_problem("vars x;\nf = x +;")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_problem("f = x;")
    with pytest.raises(ParseError):
        parse_problem("vars x x; f = x;")


def test_parse_options_and_parentheses():
    p = parse_problem("vars x y; f = (x + y)^2 * 3; window = 9; mode = weight;")
    assert p.options == {"window": Fraction(9), "mode": "weight"}
    assert p.f == ((Element.y(2, 1) + Element.y(2, 2)) ** 2).scale(3)


def test_parse_leading_minus_and_comments():
    p = parse_problem("# comment line\nvars x; f = -x^2 + x^3;")
    assert p.f == Element.y(1, 1) ** 3 - Element.y(1, 1) ** 2


def test_round_trip_identity():
    cases = [
        "vars x y; f = x^3 + y^3;",
        "vars x; f = 1/2 * x^4; window = 3;",
        "vars x y z; f = x^2 + y^2 + z^2; mode = weight; max_degree = 12;",
        "vars u v; f = -u^2 + 2/3 * v^5;",
    ]
    for text in cases:
        p1 = parse_problem(text)
        printed = print_problem(p1)
        p2 = parse_problem(printed)
        assert p1 == p2
        assert print_problem(p2) == printed


_COEFF = st.one_of(st.integers(-30, 30),
                   st.fractions(-5, 5, max_denominator=9)).filter(bool)
_POLYNOMIALS = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.dictionaries(st.tuples(*[st.integers(0, 4)] * m), _COEFF,
                                min_size=1, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(_POLYNOMIALS)
def test_round_trip_random_polynomials(case):
    """parse_problem(print_problem(p)) == p on random polynomials in 1-3
    variables with mixed int and non-integral coefficients of both signs."""
    m, coeffs = case
    names = ["x", "y", "z"][:m]
    p = ProblemFile(names, Element(m, {(a, ()): c for a, c in coeffs.items()}))
    printed = print_problem(p)
    assert parse_problem(printed) == p
    assert print_problem(parse_problem(printed)) == printed


def _validate(report):
    jsonschema.validate(report.as_dict(), SCHEMA)
    # the dict must survive a JSON round trip unchanged
    assert json.loads(json.dumps(report.as_dict())) == report.as_dict()


def test_reports_validate_for_all_commands():
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    commands = {
        "milnor": {},
        "vc-dims": {"mode": "weight"},
        "koszul-dims": {"mode": "weight"},
        "check-mc": {},
        "check-compat": {"window": 2},
        "check-selfdual": {},
        "eigen": {"p": 1, "k": 2, "max_degree": 1},
        "filtration": {"kind": "conv", "level": 2, "max_degree": 1},
    }
    for cmd, flags in commands.items():
        report = run_command(cmd, problem, flags)
        assert report.status == "ok", (cmd, report.payload)
        _validate(report)


def test_report_payload_values():
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    report = run_command("vc-dims", problem, {"mode": "weight"})
    assert report.payload["dims"] == {"0": 4}
    assert report.payload["field"] == "Q(hbar)"
    assert report.payload["stabilised"] is True
    report = run_command("check-mc", problem, {})
    assert report.residual_terms == []
    report = run_command("eigen", problem, {"p": 3, "k": 1, "max_degree": 1})
    assert report.payload["eigenvalues"] == [3]
    assert report.payload["combined_scalar"] == 0
    assert report.payload["invertible"] is False


def test_error_reports_validate_and_carry_reason():
    problem = parse_problem("vars x; f = x^3 + x^4;")
    report = run_command("vc-dims", problem, {"mode": "weight"})
    assert report.status == "error"
    assert "reason" in report.payload
    _validate(report)
    assert report.exit_code == 2


def test_exit_code_contract():
    assert Report("milnor", "ok", {}).exit_code == 0
    assert Report("milnor", "fail", {"reason": "x"}).exit_code == 1
    assert Report("milnor", "error", {"reason": "x"}).exit_code == 2


def test_main_ok_and_error(tmp_path, capsys):
    path = tmp_path / "p.qs"
    path.write_text("vars x; f = x^2;\n")
    code = main(["milnor", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["payload"]["milnor"] == 1
    bad = tmp_path / "bad.qs"
    bad.write_text("vars x; f = x + q;\n")
    code = main(["milnor", str(bad)])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2
    assert out["status"] == "error"
    jsonschema.validate(out, SCHEMA)
    code = main(["milnor", str(tmp_path / "missing.qs")])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("target, cmd, flags, exc", [
    ("qshift.cohomology.rank_rational", "vc-dims", ["--mode", "weight"],
     ArithmeticError("rank kernel fault")),
    ("qshift.gca.solve_rational", "koszul-dims", [],
     ZeroDivisionError("division by zero")),
])
def test_kernel_arithmetic_errors_exit_2(monkeypatch, tmp_path, capsys,
                                         target, cmd, flags, exc):
    def raise_exc(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, raise_exc)
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    code = main([cmd, str(path)] + flags)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == type(exc).__name__
    assert out["payload"]["reason"] == str(exc)
    jsonschema.validate(out, SCHEMA)


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    """No answer reads a seed, so no seed source takes precedence: a
    ``seed`` option is refused by the parser, ``--seed`` by argparse (exit
    2), and QSHIFT_SEED in the environment leaves the report unchanged."""
    with pytest.raises(ParseError):
        parse_problem("vars x; f = x^2; seed = 5;")
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    for cmd in ("vc-dims", "milnor"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(path), "--seed", "7"])
        capsys.readouterr()
        assert exc.value.code == 2
        monkeypatch.delenv("QSHIFT_SEED", raising=False)
        assert main([cmd, str(path)]) == 0
        plain = json.loads(capsys.readouterr().out)["payload"]
        monkeypatch.setenv("QSHIFT_SEED", "11")
        assert main([cmd, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == plain


def test_removed_flags_are_refused(tmp_path, capsys):
    """vc-dims reads no degree bound, so argparse refuses ``--max-degree``
    there (exit 2).  ``max_degree`` is an option of eigen and filtration;
    vc-dims ignores it (see ``test_zero_settings_are_kept``)."""
    path = tmp_path / "p.qs"
    path.write_text("vars x; f = x^2;\n")
    with pytest.raises(SystemExit) as exc:
        main(["vc-dims", str(path), "--max-degree", "3"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_format_polynomial_canonical():
    f = Element.y(2, 1) ** 2 - Element.y(2, 2).scale(Fraction(3, 2))
    text = format_polynomial(f, ["x", "y"])
    assert text == "x^2 - 3/2*y"


@pytest.mark.parametrize("options, cmd, flags, check", [
    ("", "filtration", {"p": 0}, lambda r: r.payload["p"] == 0),
    ("", "filtration", {"hbar_max": 0},
     lambda r: {row["hbar_exp"] for row in r.payload["dims"]} == {-1, 0}),
    ("window = 3;", "check-compat", {"window": 0},
     lambda r: r.payload["window"]["order_cap"] == 0),
    ("window = 0;", "check-compat", {},
     lambda r: r.payload["window"]["order_cap"] == 0),
    ("", "eigen", {"p": 1, "k": 2, "max_degree": 0},
     lambda r: r.payload["block_dim"] == 4),
    ("max_degree = 0;", "vc-dims", {},
     lambda r: r.status == "ok" and r.payload["dims"] == {"0": 1}),
], ids=["filtration-p", "filtration-hbar_max", "check-compat-window-flag",
        "check-compat-window-option", "eigen-max_degree",
        "vc-dims-max_degree"])
def test_zero_settings_are_kept(options, cmd, flags, check):
    problem = parse_problem(f"vars x; f = x^2; {options}")
    report = run_command(cmd, problem, flags)
    assert check(report), report.payload


@pytest.mark.parametrize("text", [
    "vars x; f = x^2;\nhbar_trunc = 1;",
    "vars x; f = x^2;\nmax_degre = 5;",
    "vars x; f = x^2;\nseed = 5;",
    "vars x; f = x^2;\nstab_window = 2;",
], ids=["hbar_trunc", "typo", "seed", "stab_window"])
def test_unknown_options_rejected(text):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (2, 1)
    assert "options are mode, max_degree, window" in str(err.value)


def test_deep_nesting_exits_2_with_report(tmp_path, capsys):
    path = tmp_path / "deep.qs"
    path.write_text("vars x; f = " + "(" * 3000 + "x" + ")" * 3000 + ";\n")
    code = main(["milnor", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == "ParseError"
    assert "nested deeper than 100" in out["payload"]["reason"]
    jsonschema.validate(out, SCHEMA)


def test_nesting_limit_position_and_depth_100_parses():
    flat = parse_problem("vars x y; f = x^2*y + 3;")
    deep = parse_problem("vars x y; f = " + "(" * 100 + "x^2*y + 3"
                         + ")" * 100 + ";")
    assert deep.f == flat.f
    with pytest.raises(ParseError) as err:
        parse_problem("vars x; f = " + "(" * 101 + "x" + ")" * 101 + ";")
    assert (err.value.line, err.value.col) == (1, 13 + 100)


def test_last_resort_handler_exits_2(monkeypatch, tmp_path, capsys):
    def broken(cmd, problem, flags):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "run_command", broken)
    path = tmp_path / "ok.qs"
    path.write_text("vars x; f = x^3;\n")
    code = main(["milnor", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == "RuntimeError"
    jsonschema.validate(out, SCHEMA)


def _count_standard(leads, m):
    """mu counted again from the leading monomials of the certificate."""
    top = max(max(a) for a in leads) if leads else 0
    return sum(1 for a in itertools.product(range(top + 1), repeat=m)
               if not any(all(x <= y for x, y in zip(b, a)) for b in leads))


@pytest.mark.parametrize("text, mu", [
    ("vars x y; f = x + x^2*y;", 0),
    ("vars x y z; f = y*z^2 + 3*y^2*z - 2*x - 2*x^2*y^2;", 5),
    ("vars x y z; f = 4*y^2*z + x - 4*x*y^3 + x^2*z^2 - 3*x^2*y^2;", 12),
], ids=["unit-ideal", "mu5", "mu12"])
def test_groebner_certificate_answers(text, mu):
    problem = parse_problem(text)
    m = len(problem.vars)
    report = run_command("milnor", problem)
    assert report.status == "ok", report.payload
    assert report.payload["milnor"] == mu
    assert report.payload["certificate"] == "groebner-grevlex"
    assert _count_standard(report.payload["leading_monomials"], m) == mu
    assert report.timing_ms < 1000
    _validate(report)
    report = run_command("koszul-dims", problem)
    assert report.status == "ok", report.payload
    assert report.payload["dims"] == ({"0": mu} if mu else {})
    assert report.payload["total"] == mu
    assert report.payload["certificate"] == "groebner-grevlex"
    assert report.timing_ms < 1000
    _validate(report)


@pytest.mark.parametrize("text, variable", [
    ("vars x y; f = x^2*y;", "y"),
    ("vars x y; f = x^2*y^2;", "x"),
    ("vars u v; f = u^2*v;", "v"),
], ids=["x2y", "x2y2", "u2v"])
def test_non_isolated_refused_with_the_variable(tmp_path, capsys, text,
                                                variable):
    """The reason names the variable as the problem file declares it."""
    path = tmp_path / "p.qs"
    path.write_text(text + "\n")
    for cmd in ("milnor", "koszul-dims", "vc-dims"):
        code = main([cmd, str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["payload"]["error_type"] == "NonIsolated"
        assert f"is a power of {variable}:" in out["payload"]["reason"]
        assert out["timing_ms"] < 1000
        jsonschema.validate(out, SCHEMA)


@pytest.mark.parametrize("text", [
    "vars x y; f = x^2*y;",
    "vars x y; f = x^2*y^2;",
    "vars x y; f = x + x^2*y;",
], ids=["x2y", "x2y2", "x+x2y"])
def test_vc_dims_refuses_what_it_cannot_certify(tmp_path, capsys, text):
    """No certificate exists: x^2*y and x^2*y^2 are not isolated, and
    x + x^2*y has no critical point but is not tame.  Each mode refuses,
    in well under a second."""
    path = tmp_path / "p.qs"
    path.write_text(text + "\n")
    for flags in ([], ["--mode", "truncate"], ["--mode", "weight"]):
        code = main(["vc-dims", str(path)] + flags)
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["payload"]["error_type"] in (
            "NotCertified", "NonIsolated", "TruncationRequired")
        assert out["timing_ms"] < 1000
        jsonschema.validate(out, SCHEMA)
    code = main(["vc-dims", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["error_type"] in ("NotCertified", "NonIsolated")


@pytest.mark.parametrize("text, certificate, dims", [
    ("vars x; f = x;", "weight-rescaling", {}),
    ("vars x y; f = x^3 + y^5;", "weight-rescaling", {"0": 8}),
    ("vars x y; f = x^4 + y^4 + x^2*y;", "tame:semi-quasi-homogeneous",
     {"0": 9}),
    ("vars x y; f = x^3 + x^2 + y^2;", "tame:semi-quasi-homogeneous",
     {"0": 2}),
    # the monomials leave the weights free; y_i^2 pins them at 1/2
    ("vars x y; f = x*y;", "tame:semi-quasi-homogeneous", {"0": 1}),
    ("vars x y z; f = x^2 + y*z;", "tame:semi-quasi-homogeneous", {"0": 1}),
], ids=["x", "x3y5", "x4y4x2y", "x3x2y2", "xy", "x2yz"])
def test_vc_dims_certificates(text, certificate, dims):
    report = run_command("vc-dims", parse_problem(text))
    assert report.status == "ok", report.payload
    assert report.payload["dims"] == dims
    assert report.payload["certificate"] == certificate
    assert report.payload["stabilised"] is True
    assert report.payload["field"] == "Q(hbar)"
    assert len(report.payload["weights"]) == len(parse_problem(text).vars)
    assert (report.payload["cutoff"] is None) == certificate.startswith("tame")
    _validate(report)
    bad = dict(report.as_dict(), payload=dict(report.payload,
                                              certificate="stabilised"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, SCHEMA)


@pytest.mark.parametrize("options, cmd", [
    ("stab_window = 0;", "vc-dims"),
    ("stab_window = 1/2;", "vc-dims"),
    ("window = 3/2;", "check-compat"),
], ids=["stab_window-0", "stab_window-half", "window-3/2"])
def test_bad_integer_settings_exit_2(tmp_path, capsys, options, cmd):
    """A non-integral window is refused, not truncated; ``stab_window`` is
    not an option, so any value of it is a parse error."""
    path = tmp_path / "p.qs"
    path.write_text(f"vars x y; f = x^5 + y^7; {options}\n")
    code = main([cmd, str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    jsonschema.validate(out, SCHEMA)


def test_negative_window_flag_exits_2(tmp_path, capsys):
    """``--window -1`` is refused with a schema-valid error report, as the
    file option ``window = -1;`` is refused by the parser."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    code = main(["check-compat", str(path), "--window", "-1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["reason"] == "window must be >= 0, not -1"
    jsonschema.validate(out, SCHEMA)
    path.write_text("vars x y; f = x^3 + y^3; window = -1;\n")
    assert main(["check-compat", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd, extra", [
    ("filtration", []),
    ("eigen", ["--p", "1", "--k", "2"]),
], ids=["filtration", "eigen"])
def test_negative_max_degree_flag_exits_2(tmp_path, capsys, cmd, extra):
    """``--max-degree -1`` is refused like ``--window -1``, not answered
    with an empty window (a filtration table of zeros)."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    code = main([cmd, str(path), "--max-degree", "-1", *extra])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["reason"] == "max_degree must be >= 0, not -1"
    jsonschema.validate(out, SCHEMA)


@pytest.mark.parametrize("flag, name", [("--hbar-max", "hbar_max"),
                                        ("--p", "p")], ids=["hbar-max", "p"])
def test_negative_filtration_setting_exits_2(tmp_path, capsys, flag, name):
    """``filtration --hbar-max -1`` and ``--p -1`` are refused like
    ``--max-degree -1``, not answered with a shorter table or the p = 0
    table."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = 1/2*x^3 + 2/3*y^3;\n")
    code = main(["filtration", str(path), flag, "-1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["reason"] == f"{name} must be >= 0, not -1"
    jsonschema.validate(out, SCHEMA)


def _multi_term_operator():
    return Operator(2, {((1, 0), (), (0, 1), ()): HSeries({0: 3, 2: 1}),
                        ((0, 0), (), (0, 0), (1,)): Fraction(-1, 2)})


@pytest.mark.parametrize("cmd, target, verdict, status, field", [
    ("check-mc", "mc_residual", lambda op: op, "fail", None),
    ("check-compat", "check_compatibility",
     lambda op: CompatVerdict(CompatVerdict.FAILS, residual=op), "fail", None),
    ("check-compat", "check_compatibility",
     lambda op: CompatVerdict(CompatVerdict.COBOUNDARY, witness=op), "ok",
     "witness_terms"),
    ("check-selfdual", "is_self_dual",
     lambda op: SelfDualVerdict(SelfDualVerdict.FAILS, op), "fail", None),
], ids=["mc-fail", "compat-fail", "compat-witness", "selfdual-fail"])
def test_failing_and_witness_reports(monkeypatch, cmd, target, verdict,
                                     status, field):
    """The canonical quantisation never fails these checks, so the check is
    replaced by one answering a nonzero operator with a multi-term hbar
    coefficient; its terms print one [monomial, coefficient] pair each."""
    answer = verdict(_multi_term_operator())
    monkeypatch.setattr(cli, target, lambda *args: answer)
    problem = parse_problem("vars x y; f = 1/2*x^3 + 2/3*y^3;")
    report = run_command(cmd, problem, {})
    assert report.status == status
    assert report.exit_code == (1 if status == "fail" else 0)
    _validate(report)
    terms = [["Deta1", "-1/2"], ["y1*Dy2", "3 + h^2"]]
    if field is None:
        assert report.residual_terms == terms
        assert report.payload["reason"]
    else:
        assert report.payload[field] == terms
        assert report.residual_terms is None
