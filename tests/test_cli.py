import itertools
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from qshift import cli, gca, quantise
from qshift.cli import ProblemFile, Report, main, parse_problem, run_command
from qshift.coefficients import HSeries, codec
from qshift.diffops import Operator
from qshift.errors import ExponentOverflow, ParseError, UnknownVariable
from qshift.gca import Element
from qshift.quantise import Verdict

from conftest import format_polynomial, print_problem

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qshift",
                           "report_schema.json")
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reports.json")
with open(GOLDEN_PATH) as fh:
    # the pinned command reports, given back the timing that the pin drops
    GOLDEN = {job_id: dict(report, timing_ms=0)
              for job_id, report in json.load(fh).items()
              if "command" in report}


def test_parse_basic():
    p = parse_problem("vars x y; f = x^3 + y^3;")
    assert p.vars == ["x", "y"]
    assert p.f == Element.y(2, 1) ** 3 + Element.y(2, 2) ** 3


def test_parse_rational_coefficient():
    p = parse_problem("vars x; f = 1/2 * x^4;")
    expected = Element.y(1, 1) ** 4
    assert p.f == expected.scale(Fraction(1, 2))


def test_parse_unknown_variable_position():
    with pytest.raises(UnknownVariable) as err:
        parse_problem("vars x; f = x + z;")
    assert err.value.line == 1
    assert err.value.col == 17


@pytest.mark.parametrize("text, line, col", [
    ("vars x; \n f = x +;", 2, 9),              # a space before the newline
    ("vars x; # c \n f = x + z;", 2, 10),       # a comment before it
    ("vars x;\t\r\n\tf = x +;", 2, 9),           # tab, \r\n, tab
    ("vars x;\u00a0\nf\u00a0= x +;", 2, 8),      # no-break spaces
    ("vars x;\n\n  f = (x +\n   z);", 4, 4),
    ("vars x; f = x", 1, 14),                    # eof
    ("vars x; f = x \t\r", 1, 17),              # eof after spaces
    ("vars x; f = x # c", 1, 15),                # eof after a comment
    ("vars x; f = x\n# c\n", 3, 1),             # eof after a comment line
], ids=["space-newline", "comment-newline", "crlf-tabs", "no-break-space",
        "lines", "eof", "eof-spaces", "eof-comment", "eof-comment-line"])
def test_positions_after_whitespace_comments_and_newlines(text, line, col):
    """Only a newline starts a line; every other whitespace character, a
    carriage return or a no-break space too, takes one column, and a
    comment takes none, so the end of input after a comment is at its '#'.
    So the error after whitespace or a comment that precedes a newline
    carries the position on the next line."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith(f"(line {line}, col {col})")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_problem("vars x;\nf = x +;")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_problem("f = x;")
    with pytest.raises(ParseError):
        parse_problem("vars x x; f = x;")


@pytest.mark.parametrize("text, col", [
    ("vars x; f = x\u00b2;", 14),          # superscript two
    ("vars x; f = x^\u0663;", 15),         # Arabic-Indic three
    ("vars x; f = \uff13*x;", 13),          # fullwidth three
    ("vars x; f = 1/\u0662*x;", 14),        # a denominator in another script
], ids=["superscript", "arabic-indic-exponent", "fullwidth", "denominator"])
def test_non_ascii_digits_are_parse_errors(tmp_path, capsys, text, col):
    """Only the ASCII digits 0-9 make a number: another script's digit, or
    a superscript, is a ParseError at its position (exit 2, no traceback),
    where one was read as a digit (x^3 for the Arabic-Indic three) or
    failed in int() with a ValueError."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (1, col)
    path = tmp_path / "p.qs"
    path.write_text(text, encoding="utf-8")
    assert main(["milnor", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["payload"]["error_type"] == "ParseError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["numerator", "denominator"])
def test_numerals_longer_than_int_converts_are_parse_errors(tmp_path, capsys,
                                                            where):
    """A numeral with more digits than ``int`` converts from a string (4,300
    by default), as numerator or denominator, is a ParseError at its
    position (exit 2, no traceback), where int() raised a ValueError; one
    digit fewer parses."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("int() converts numerals of any length here")

    def text(digits):
        if where == "numerator":
            return f"vars x;\nf = {'7' * digits}*x^2;\n"
        return f"vars x;\nf = 1/{'7' * digits}*x^2;\n"

    assert parse_problem(text(limit)).f.terms
    with pytest.raises(ParseError, match=f"{limit + 1} digits") as err:
        parse_problem(text(limit + 1))
    assert (err.value.line, err.value.col) == (2, 5 if where == "numerator" else 7)
    path = tmp_path / "p.qs"
    path.write_text(text(limit + 1))
    assert main(["milnor", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["payload"]["error_type"] == "ParseError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    "vars x; f = x^32768;", "vars x; f = 3^320000;",
    "vars x y; f = (x + y)^32768;", "vars x; f = 2*x^99999999999999999999;",
], ids=["x", "constant", "binomial", "huge"])
def test_exponent_literal_beyond_the_field_is_refused(monkeypatch, tmp_path,
                                                      capsys, text):
    """An exponent literal of 2^15 or more is refused with ExponentOverflow
    before any product is taken (3^320000 once took seconds, and
    (x + y)^32768 ran 32,767 products before the codec refused it); a
    report names it, exit 2."""
    def no_product(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(gca, "gmul", no_product)
    with pytest.raises(ExponentOverflow, match="not below 32768"):
        parse_problem(text)
    path = tmp_path / "p.qs"
    path.write_text(text)
    assert main(["milnor", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["error_type"] == "ExponentOverflow"
    jsonschema.validate(out, SCHEMA)


def test_exponent_literal_at_the_limit_parses():
    assert parse_problem("vars x; f = x^32767;").f == Element.y(1, 1, 32767)


def test_parse_options_and_parentheses():
    """The problem ends at f: a former option line after it is trailing
    input at its name, and settings are flags only."""
    p = parse_problem("vars x y; f = (x + y)^2 * 3;")
    assert p.f == ((Element.y(2, 1) + Element.y(2, 2)) ** 2).scale(3)
    with pytest.raises(ParseError) as err:
        parse_problem("vars x y; f = (x + y)^2 * 3; window = 9;")
    assert str(err.value) == "trailing input 'window' (line 1, col 30)"


@pytest.mark.parametrize("text, message", [
    ("vars x; f = x; 3", "trailing input '3' (line 1, col 16)"),
    ("vars x; f = x; 2/3", "trailing input '2/3' (line 1, col 16)"),
    ("vars x; f = (x 2);", "expected ')', found '2' (line 1, col 16)"),
    ("vars x; f = (x 2/3);", "expected ')', found '2/3' (line 1, col 16)"),
    ("vars x; f = x; y", "trailing input 'y' (line 1, col 16)"),
    ("vars x; f = (x y);", "expected ')', found 'y' (line 1, col 16)"),
    ("vars x; f = (x;", "expected ')', found ';' (line 1, col 15)"),
    ("vars x; f = (x", "expected ')', found None (line 1, col 15)"),
], ids=["trailing-int", "trailing-fraction", "paren-int", "paren-fraction",
        "trailing-ident", "paren-ident", "paren-op", "paren-eof"])
def test_parse_messages_quote_the_token_as_written(text, message):
    """A refused numeral is quoted as its source text, never as the
    Fraction it stands for; identifiers, operators and the end of input
    are quoted as before."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message


def test_parse_leading_minus_and_comments():
    p = parse_problem("# comment line\nvars x; f = -x^2 + x^3;")
    assert p.f == Element.y(1, 1) ** 3 - Element.y(1, 1) ** 2


def test_unary_minus_only_leads_an_expression(tmp_path, capsys):
    """``-`` may lead an expression or a parenthesised one, never a term
    after a binary operator: ``x^3 + -2*y^3`` is a parse error at the
    second sign (exit 2), while ``x^3 - 2*y^3`` and ``x^3 + (-2)*y^3``
    parse to the same polynomial."""
    expected = Element.y(2, 1) ** 3 - (Element.y(2, 2) ** 3).scale(2)
    for text in ("x^3 - 2*y^3", "x^3 + (-2)*y^3"):
        assert parse_problem(f"vars x y; f = {text};").f == expected
    with pytest.raises(ParseError) as err:
        parse_problem("vars x y; f = x^3 + -2*y^3;")
    assert (err.value.line, err.value.col) == (1, 21)
    path = tmp_path / "minus.qs"
    path.write_text("vars x y; f = x^3 + -2*y^3;\n")
    assert main(["milnor", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_round_trip_identity():
    cases = [
        "vars x y; f = x^3 + y^3;",
        "vars x; f = 1/2 * x^4;",
        "# a comment\nvars x y z;\n  f = (x^2 + y^2) + z^2;  # f\n",
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
        "vc-dims": {},
        "koszul-dims": {},
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


def test_every_golden_report_validates():
    """Every pinned report of every command meets the schema, payload
    blocks included."""
    assert {r["command"] for r in GOLDEN.values()} == set(cli.COMMAND_FLAGS)
    for job_id, report in GOLDEN.items():
        try:
            jsonschema.validate(report, SCHEMA)
        except jsonschema.ValidationError as exc:
            pytest.fail(f"{job_id}: {exc.message}")


_PAYLOAD_FIELDS = {
    "check-mc": ["residual_zero"],
    "check-compat": ["verdict", "window"],
    "check-selfdual": ["verdict", "profile"],
    "eigen": ["p", "k", "block_dim", "eigenvalues", "combined_scalar",
              "invertible", "diagonalisable"],
    "filtration": ["dims", "kind", "level", "p"],
    "vc-dims": ["dims", "field", "stabilised", "euler", "total"],
    "koszul-dims": ["dims", "field", "stabilised", "euler", "total"],
}


@pytest.mark.parametrize("cmd, field", [
    (cmd, field) for cmd, fields in _PAYLOAD_FIELDS.items() for field in fields
], ids=lambda value: value)
def test_schema_requires_each_payload_field(cmd, field):
    """A pinned ok report of ``cmd`` without one of its payload fields is
    refused by the schema."""
    report = next(r for r in GOLDEN.values()
                  if r["command"] == cmd and r["status"] == "ok")
    jsonschema.validate(report, SCHEMA)
    payload = dict(report["payload"])
    del payload[field]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(dict(report, payload=payload), SCHEMA)


def test_every_command_refuses_a_zero_f_from_the_one_locus(monkeypatch,
                                                          tmp_path, capsys):
    """All eight commands build the critical locus once, right after the
    flag check, so f = 0 gets one report from all of them: ZeroPolynomial,
    reason 'f = 0', exit 2."""
    path = tmp_path / "zero.qs"
    path.write_text("vars x; f = x - x;\n")
    calls = []
    real = cli.make_crit_locus
    monkeypatch.setattr(cli, "make_crit_locus",
                        lambda *args: calls.append(args) or real(*args))
    for cmd in cli.COMMAND_FLAGS:
        calls.clear()
        assert main([cmd, str(path)]) == 2, cmd
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload == {"reason": "f = 0",
                           "error_type": "ZeroPolynomial"}, cmd
        assert len(calls) == 1, cmd


def test_report_payload_values():
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    report = run_command("vc-dims", problem, {})
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
    problem = parse_problem("vars x y; f = x^2*y;")
    report = run_command("vc-dims", problem, {})
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
    ("qshift.cohomology.rank_rational", "vc-dims", [],
     ArithmeticError("rank kernel fault")),
    ("qshift.cohomology._groebner", "koszul-dims", [],
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


def _usage_error(capsys, argv, reason):
    """main answers a bad argument to a known command with a schema-valid
    error report on stdout and exit 2."""
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["command"] == argv[0]
    assert out["status"] == "error"
    assert out["payload"]["reason"] == reason
    jsonschema.validate(out, SCHEMA)
    return out


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    """No answer reads a seed, so no seed source takes precedence: a
    ``seed`` option is refused by the parser, ``--seed`` with an error
    report (exit 2), and QSHIFT_SEED in the environment leaves the report
    unchanged."""
    with pytest.raises(ParseError):
        parse_problem("vars x; f = x^2; seed = 5;")
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    for cmd in ("vc-dims", "milnor"):
        _usage_error(capsys, [cmd, str(path), "--seed", "7"],
                     "unrecognized arguments: --seed 7")
        monkeypatch.delenv("QSHIFT_SEED", raising=False)
        assert main([cmd, str(path)]) == 0
        plain = json.loads(capsys.readouterr().out)["payload"]
        monkeypatch.setenv("QSHIFT_SEED", "11")
        assert main([cmd, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == plain


def test_removed_flags_are_refused(tmp_path, capsys):
    """vc-dims reads no degree bound, so ``--max-degree`` is refused there
    with an error report (exit 2).  ``max_degree`` is a flag of eigen and
    filtration only, and no problem file sets it."""
    path = tmp_path / "p.qs"
    path.write_text("vars x; f = x^2;\n")
    out = _usage_error(capsys, ["vc-dims", str(path), "--max-degree", "3"],
                       "unrecognized arguments: --max-degree 3")
    assert out["payload"]["error_type"] == "UsageError"


@pytest.mark.parametrize("argv, reason", [
    (["eigen", "FILE", "--p", "1.5", "--k", "2"], "p must be an integer, not 1.5"),
    (["eigen", "FILE", "--k", "2", "--p"], "argument --p: expected one argument"),
    (["filtration", "FILE", "--kind", "bogus"],
     "kind must be one of g, ftilde, conv, not 'bogus'"),
    (["check-compat", "FILE", "--window", "abc"],
     "window must be an integer, not abc"),
    (["milnor", "FILE", "extra"], "unrecognized arguments: extra"),
    (["milnor"], "the following arguments are required: file"),
], ids=["eigen-p-1.5", "eigen-p-no-value", "filtration-kind-bogus",
        "check-compat-window-abc", "milnor-extra", "milnor-no-file"])
def test_bad_flags_get_an_error_report(tmp_path, capsys, argv, reason):
    """A bad flag value, a flag without its value, a stray argument and a
    missing file each get an error report under their command (exit 2)."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    _usage_error(capsys, [str(path) if a == "FILE" else a for a in argv],
                 reason)


@pytest.mark.parametrize("argv", [["bogus", "p.qs"], [], ["--p", "2"]],
                         ids=["unknown", "missing", "flag-only"])
def test_unknown_or_missing_command_exits_from_argparse(capsys, argv):
    """A report's command is one of the known commands, so an unknown or
    missing command gets argparse's usage line and exit 2, no report."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cmd, flags, name", [
    ("check-compat", {"windw": 0}, "windw"),
    ("vc-dims", {"mode": "weight"}, "mode"),
    ("milnor", {"max_degree": -5}, "max_degree"),
    ("eigen", {"p": 1, "k": 2, "level": 1}, "level"),
], ids=["check-compat-windw", "vc-dims-mode", "milnor-max_degree",
        "eigen-level"])
def test_run_command_refuses_flags_it_does_not_read(cmd, flags, name):
    """run_command refuses a flag its command does not read, naming it,
    where it once answered ok with the flag ignored; a flag set to None is
    unset, as main passes every flag of the command."""
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    report = run_command(cmd, problem, flags)
    assert report.status == "error" and report.exit_code == 2
    assert report.payload["error_type"] == "UsageError"
    assert report.payload["reason"].startswith(
        f"{cmd} does not read the flag {name!r}")
    _validate(report)
    unset = {key: None for key in flags}
    assert run_command(cmd, problem, unset).status == (
        "error" if cmd == "eigen" else "ok")


def test_eigen_non_scalar_block_exits_2(monkeypatch, tmp_path, capsys):
    """A block of nu that is not a scalar (a stand-in whose first image
    has a term off the diagonal) is refused: exit 2, NotCertified, and a
    report that validates."""
    def block_images(X, block, slots):
        hbar = codec(X.m).hbar
        return [{block[0] + hbar: 1, block[1] + hbar: 1},
                *({key + hbar: 1} for key in block[1:])]

    monkeypatch.setattr(quantise, "_nu_block", block_images)
    path = tmp_path / "p.qs"
    path.write_text("vars x; f = x^2;\n")
    code = main(["eigen", str(path), "--p", "1", "--k", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == "NotCertified"
    jsonschema.validate(out, SCHEMA)


def test_format_polynomial_canonical():
    f = Element.y(2, 1) ** 2 - Element.y(2, 2).scale(Fraction(3, 2))
    text = format_polynomial(f, ["x", "y"])
    assert text == "x^2 - 3/2*y"


@pytest.mark.parametrize("cmd, flags, check", [
    ("filtration", {"p": 0}, lambda r: r.payload["p"] == 0),
    ("filtration", {"hbar_max": 0},
     lambda r: {row["hbar_exp"] for row in r.payload["dims"]} == {-1, 0}),
    ("check-compat", {"window": 0},
     lambda r: r.payload["window"]["order_cap"] == 0),
    ("check-compat", {"window": "0"},
     lambda r: r.payload["window"]["order_cap"] == 0),
    ("eigen", {"p": 1, "k": 2, "max_degree": 0},
     lambda r: r.payload["block_dim"] == 4),
    ("vc-dims", {"max_degree": None},
     lambda r: r.status == "ok" and r.payload["dims"] == {"0": 1}),
], ids=["filtration-p", "filtration-hbar_max", "check-compat-window-flag",
        "check-compat-window-option", "eigen-max_degree",
        "vc-dims-max_degree"])
def test_zero_settings_are_kept(cmd, flags, check):
    """A setting of 0, as an int or as the string the command line passes,
    is used as 0, not replaced by its default; vc-dims reads no bound, and
    an unset (None) ``max_degree`` leaves its answer as it is."""
    problem = parse_problem("vars x; f = x^2;")
    report = run_command(cmd, problem, flags)
    assert check(report), report.payload


@pytest.mark.parametrize("text", [
    "vars x; f = x^2;\nhbar_trunc = 1;",
    "vars x; f = x^2;\nmax_degre = 5;",
    "vars x; f = x^2;\nseed = 5;",
    "vars x; f = x^2;\nstab_window = 2;",
    "vars x; f = x^2;\nmode = weight;",
    "vars x; f = x^2;\nwindow = 3;",
    "vars x; f = x^2;\nmax_degree = 2;",
], ids=["hbar_trunc", "typo", "seed", "stab_window", "mode", "window",
        "max_degree"])
def test_unknown_options_rejected(text):
    """The problem ends at f, so every ``name = value;`` line after it, the
    former options ``window`` and ``max_degree`` too, is trailing input at
    its name."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    name = text.split("\n")[1].split()[0]
    assert str(err.value) == f"trailing input {name!r} (line 2, col 1)"


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


# 20 monomials in x, y, z with no quasi-homogeneity weights: mu = 96, and
# the 30 minimal leading monomials of the grevlex basis in grevlex order.
_DENSE_F = ("vars x y z; f = -4*z^3 + 4*y^2*z + 2*y^2*z^2 + 4*y^2*z^3"
            " - y^3*z^2 + 4*x*z^2 - 2*x*y - 2*x*y*z + 5*x*y*z^2 + 2*x*y^2"
            " + 5*x*y^3 - x^2*y*z + 3*x^2*y*z^3 + 3*x^2*y^3 + x^2*y^3*z^2"
            " - 4*x^2*y^3*z^3 + x^3 + 5*x^3*y^2 - 4*x^3*y^2*z + 3*x^3*y^3;")
_DENSE_LEADS = [
    [3, 2, 1], [3, 3, 0], [2, 1, 4], [0, 4, 3], [1, 3, 3], [2, 2, 3],
    [2, 3, 2], [4, 1, 2], [5, 0, 2], [0, 6, 1], [1, 5, 1], [2, 4, 1],
    [5, 1, 1], [6, 0, 1], [1, 6, 0], [2, 5, 0], [5, 2, 0], [6, 1, 0],
    [7, 0, 0], [0, 0, 8], [0, 1, 7], [1, 0, 7], [0, 2, 6], [1, 1, 6],
    [2, 0, 6], [0, 3, 5], [1, 2, 5], [3, 0, 5], [4, 0, 4], [0, 8, 0]]


def test_dense_milnor_certificate_is_pinned():
    """A dense f without weights: mu and the leading monomials, in order,
    as the tuple-and-Fraction Buchberger reported them."""
    report = run_command("milnor", parse_problem(_DENSE_F))
    assert report.status == "ok", report.payload
    assert report.payload["milnor"] == 96
    assert report.payload["certificate"] == "groebner-grevlex"
    assert report.payload["leading_monomials"] == _DENSE_LEADS
    assert _count_standard(_DENSE_LEADS, 3) == 96
    _validate(report)


_ROADMAP_F = ("vars x y z; f = 2*x^3*y^4*z^4 - x^3*y*z^4 - 2/3*x^2*y^3*z^4"
              " + 2*x^4*y^3*z^3 + 2*y*z^2;")


@pytest.mark.parametrize("text, reason", [
    ("vars x y; f = x^2*y;", "x^2 divides every term of f, so the hyperplane x = 0"),
    ("vars x y; f = x^2*y^2;", "x^2 divides every term of f, so the hyperplane x = 0"),
    ("vars u v; f = u^2*v;", "u^2 divides every term of f, so the hyperplane u = 0"),
    (_ROADMAP_F, "z^2 divides every term of f, so the hyperplane z = 0"),
    ("vars u v; f = u^2 + 2*u*v + v^2;", "is a power of v:"),
    # y is absent from f, so no weights exist and vc-dims takes _tame
    ("vars x y; f = x^3;", "x^2 divides every term of f, so the hyperplane x = 0"),
], ids=["x2y", "x2y2", "u2v", "z2-divides-f", "(u+v)^2", "x3-no-y"])
def test_non_isolated_refused_with_the_variable(tmp_path, capsys, text,
                                                reason):
    """The reason names the variable as the problem file declares it: the
    y_i whose square divides every term of f, found before any Groebner
    basis (the z2 case ran for over 300 s without that check), or else the
    y_i with no pure power among the leading monomials.  Each command gives
    the same reason."""
    path = tmp_path / "p.qs"
    path.write_text(text + "\n")
    reasons = set()
    for cmd in ("milnor", "koszul-dims", "vc-dims"):
        code = main([cmd, str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["payload"]["error_type"] == "NonIsolated"
        assert reason in out["payload"]["reason"]
        assert out["timing_ms"] < 1000
        jsonschema.validate(out, SCHEMA)
        reasons.add(out["payload"]["reason"])
    assert len(reasons) == 1


@pytest.mark.parametrize("text", [
    "vars x y; f = x^2*y;",
    "vars x y; f = x^2*y^2;",
    "vars x y; f = x + x^2*y;",
], ids=["x2y", "x2y2", "x+x2y"])
def test_vc_dims_refuses_what_it_cannot_certify(tmp_path, capsys, text):
    """No certificate exists: x^2*y and x^2*y^2 are not isolated, and
    x + x^2*y has no critical point but is not tame.  vc-dims refuses, in
    well under a second."""
    path = tmp_path / "p.qs"
    path.write_text(text + "\n")
    code = main(["vc-dims", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["payload"]["error_type"] in ("NotCertified", "NonIsolated")
    assert out["timing_ms"] < 1000
    jsonschema.validate(out, SCHEMA)


def test_vc_dims_mode_is_refused(tmp_path, capsys):
    """vc-dims chooses its certificate from f: ``--mode`` is an unknown
    flag, and a ``mode = weight;`` line after f a parse error, each refused
    with an error report (exit 2)."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = 1/2*x^3 + 2/3*y^3;\n")
    _usage_error(capsys, ["vc-dims", str(path), "--mode", "weight"],
                 "unrecognized arguments: --mode weight")
    path.write_text("vars x y; f = 1/2*x^3 + 2/3*y^3; mode = weight;\n")
    assert main(["vc-dims", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == "ParseError"
    jsonschema.validate(out, SCHEMA)


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


@pytest.mark.parametrize("options, argv, error_type", [
    ("stab_window = 0;", ["vc-dims"], "ParseError"),
    ("stab_window = 1/2;", ["vc-dims"], "ParseError"),
    ("", ["check-compat", "--window", "3/2"], "QShiftError"),
], ids=["stab_window-0", "stab_window-half", "window-3/2"])
def test_bad_integer_settings_exit_2(tmp_path, capsys, options, argv,
                                     error_type):
    """``--window 3/2`` is refused, not truncated; a problem file holds no
    settings, so a ``stab_window`` line after f is a parse error."""
    path = tmp_path / "p.qs"
    path.write_text(f"vars x y; f = x^5 + y^7; {options}\n")
    code = main([argv[0], str(path), *argv[1:]])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["error_type"] == error_type
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


@pytest.mark.parametrize("value, code", [(32767, 0), (32768, 2), (10 ** 5, 2)])
def test_filtration_hbar_max_beyond_the_field_is_refused(value, code):
    """``filtration --hbar-max`` of 2^15 or more is refused with
    ExponentOverflow, as a window cap is, before any table is built (10^5
    once took seconds and hundreds of MB at m = 3); 2^15 - 1 is answered."""
    problem = parse_problem("vars x; f = x^3;")
    report = run_command("filtration", problem, {"hbar_max": value})
    assert report.exit_code == code
    if code:
        assert report.payload == {
            "reason": f"hbar_max must be below 32768, not {value}",
            "error_type": "ExponentOverflow"}
    else:
        assert report.payload["dims"][-1]["hbar_exp"] == 32767
    _validate(report)


@pytest.mark.parametrize("cmd, flags, reason", [
    ("eigen", {"p": Fraction(3, 2), "k": 2}, "p must be an integer, not 3/2"),
    ("eigen", {"p": 1, "k": 2.9}, "k must be an integer, not 2.9"),
    ("eigen", {"k": 2}, "p is required"),
    ("eigen", {"p": 1}, "k is required"),
    ("filtration", {"level": Fraction(3, 2)},
     "level must be an integer, not 3/2"),
    ("filtration", {"kind": "bogus"},
     "kind must be one of g, ftilde, conv, not 'bogus'"),
], ids=["eigen-p-3/2", "eigen-k-2.9", "eigen-no-p", "eigen-no-k",
        "filtration-level-3/2", "filtration-kind-bogus"])
def test_library_settings_are_refused_not_truncated(cmd, flags, reason):
    """run_command takes settings from library callers too: a non-integral
    p, k or level is refused rather than truncated (p = 3/2 once ran as
    p = 1), and a missing p or k or an unknown kind is named."""
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    report = run_command(cmd, problem, flags)
    assert report.status == "error"
    assert report.payload["reason"] == reason
    _validate(report)


def _multi_term_operator():
    return Operator(2, {((1, 0), (), (0, 1), ()): HSeries({0: 3, 2: 1}),
                        ((0, 0), (), (0, 0), (1,)): Fraction(-1, 2)})


@pytest.mark.parametrize("cmd, target, verdict, status, field", [
    ("check-mc", "mc_residual", lambda op: op, "fail", None),
    ("check-compat", "check_compatibility",
     lambda op: Verdict(Verdict.FAILS, residual=op), "fail", None),
    ("check-compat", "check_compatibility",
     lambda op: Verdict(Verdict.COBOUNDARY, witness=op), "ok",
     "witness_terms"),
    ("check-selfdual", "is_self_dual",
     lambda op: Verdict(Verdict.FAILS, residual=op), "fail", None),
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


@pytest.mark.parametrize("text, message", [
    ("vars x; f = 1/0*x;", "zero denominator (line 1, col 13)"),
    ("vars ; f = 1;", "need at least one variable (line 1, col 6)"),
    ("vars x; f = x^1/2;",
     "exponent must be a natural number (line 1, col 15)"),
], ids=["zero-denominator", "no-variable", "fractional-exponent"])
def test_parser_refusals_are_pinned(text, message):
    """A zero denominator, an empty variable list and a fractional exponent
    are each a ParseError at their position."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message


def test_run_command_refuses_an_unknown_command():
    report = run_command("bogus", parse_problem("vars x; f = x^2;"))
    assert report.exit_code == 2
    assert report.payload == {"reason": "unknown command 'bogus'",
                              "error_type": "QShiftError"}


def test_eigen_k_zero_exits_2(tmp_path, capsys):
    """``eigen --k 0`` is refused by the analysis with a schema-valid error
    report (exit 2)."""
    path = tmp_path / "p.qs"
    path.write_text("vars x y; f = x^3 + y^3;\n")
    out = _usage_error(capsys, ["eigen", str(path), "--p", "2", "--k", "0"],
                       "need p >= 0 and k >= 1")
    assert out["payload"]["error_type"] == "ValueError"


@pytest.mark.parametrize("cmd, flags, name", [
    ("check-compat", {}, "window"),
    ("eigen", {"p": 1, "k": 2}, "max_degree"),
    ("eigen", {"p": 1}, "k"),
    ("filtration", {}, "max_degree"),
    ("filtration", {}, "level"),
    ("filtration", {}, "p"),
], ids=["check-compat-window", "eigen-max_degree", "eigen-k",
        "filtration-max_degree", "filtration-level", "filtration-p"])
@pytest.mark.parametrize("value", [32767, 32768])
def test_integer_settings_below_the_exponent_limit(cmd, flags, name, value):
    """Every integer setting must stay below 2^15 = 32768, as an exponent
    does: 2^15 - 1 is answered, and 2^15 is refused with ExponentOverflow
    naming the flag and its value.  ``check-compat --window 40000`` on
    x^3+y^3 once answered ok, since the canonical pair needs no search,
    and so did ``filtration --max-degree 40000``.  ``--hbar-max`` has its
    own test; ``eigen --p`` is left out, as its block grows with p (p =
    2000 on x^3+y^3 takes about 1 s and 70 MB)."""
    problem = parse_problem("vars x y; f = x^3 + y^3;")
    report = run_command(cmd, problem, {**flags, name: str(value)})
    _validate(report)
    if value < 32768:
        assert report.status == "ok", report.payload
    else:
        assert report.payload == {
            "reason": f"{name} must be below 32768, not 32768",
            "error_type": "ExponentOverflow"}


@pytest.mark.parametrize("cmd, defaults", [
    ("milnor", {}), ("vc-dims", {}), ("koszul-dims", {}), ("check-mc", {}),
    ("check-compat", {"window": 3}), ("check-selfdual", {}),
    ("eigen", {"p": None, "k": None, "max_degree": 2}),
    ("filtration", {"kind": "ftilde", "level": 0, "p": 2, "max_degree": 2,
                    "hbar_max": 4}),
])
def test_help_names_every_default(capsys, cmd, defaults):
    """``qshift <cmd> --help`` gives each flag's default from the one table,
    or "required", the values the README's command table lists."""
    assert cli.COMMAND_FLAGS[cmd] == defaults
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, default in defaults.items():
        want = "required" if default is None else f"default {default}"
        assert f"--{name.replace('_', '-')} {name.upper()} {want}" in text
