"""Problem-file DSL, command dispatch, and machine-readable JSON reports.

Grammar (a deliberately small, diff-friendly surface):

    problem := "vars" ident+ ";" "f" "=" expr ";" EOF
    expr    := ["-"] term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := base ("^" nat)?
    base    := ident | rational | "(" expr ")"

Rational literals are integers or a/b fractions, read with the rest by
one compiled scanner (``_SCAN``).  Settings are flags only, with their
defaults in ``COMMAND_FLAGS``.  Every command runs on the one locus
that ``ProblemFile.crit_locus`` builds, where f is checked.  Reports are
JSON on stdout (schema shipped as ``report_schema.json``), diagnostics on
stderr; exit code 0 means status ok, 1 a violated identity, 2 bad input
or an answer that cannot be certified.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .coefficients import _setting, codec, format_monomial
from .cohomology import (koszul_dims_at_hbar_zero, milnor_number,
                         twisted_derham_dims)
from .derham import (SearchWindow, canonical_symplectic, check_compatibility)
from .duality import is_self_dual, solve_sign_profile
from .errors import (ExponentOverflow, ParseError, QShiftError,
                     UnknownVariable, UsageError)
from .gca import Element, make_crit_locus
from .quantise import (bv_quantisation, filtration_dims, mc_residual,
                       nu_eigen_analysis)

SCHEMA_VERSION = 1

# the flags each command reads, in the order it reads them, with their
# defaults (None: required): ``--max-degree`` on the command line,
# ``max_degree`` in the flags of ``run_command``
COMMAND_FLAGS = {
    "milnor": {}, "vc-dims": {}, "koszul-dims": {}, "check-mc": {},
    "check-compat": {"window": 3}, "check-selfdual": {},
    "eigen": {"p": None, "k": None, "max_degree": 2},
    "filtration": {"kind": "ftilde", "level": 0, "p": 2, "max_degree": 2,
                   "hbar_max": 4},
}
MAX_NESTING = 100  # parentheses; the parser recurses four frames per level

_KIND_MAP = {"g": "G", "ftilde": "Ftilde", "conv": "GconvF"}
_INTEGER = re.compile(r"-?[0-9]+")  # an integer setting's text
# the reports of the commands whose check answers a Verdict, when it fails
_FAIL_REASONS = {
    "check-compat": "no coboundary witness in the window",
    "check-selfdual": "star involution does not fix the quantisation"}


# ---------------------------------------------------------------------------
# Tokeniser / parser
# ---------------------------------------------------------------------------

class _Token:
    """A token and its position: ``value`` is what the parser reads (a
    numeral's Fraction), ``text`` the source text that messages quote (None
    at eof)."""

    __slots__ = ("kind", "value", "line", "col", "text")

    def __init__(self, kind, value, line, col, text=None):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.text = value if text is None else text

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


# Numerals and identifiers are ASCII ([0-9], not ``str.isdigit``'s digits);
# a space is ``str.isspace`` without the newline, which alone ends a line.
_SCAN = re.compile(r"(?P<number>(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?)"
                   r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[;=+\-*^()])"
                   r"|(?P<comment>#[^\n]*)|(?P<space>[^\S\n]+)|(?P<newline>\n)")


def _tokenize(text):
    """The tokens of ``text`` with 1-based positions, ending in eof.  A
    numeral with more digits than ``int`` converts is refused at its first
    digit; a comment takes no column, so an eof after one is at its '#'."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 is no limit
    tokens, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        match = _SCAN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, value, pos = match.lastgroup, match.group(), match.end()
        if kind == "number":
            num, den = match.group("num", "den")
            for digits, at in ((num, col), (den or "", col + len(num) + 1)):
                if 0 < limit < len(digits):
                    raise ParseError(f"numeral of {len(digits)} digits "
                                     f"(limit {limit})", line, at)
            if den is not None and int(den) == 0:
                raise ParseError("zero denominator", line, col)
            tokens.append(_Token(kind, Fraction(int(num), int(den or 1)),
                                 line, col, value))
        elif kind == "ident":
            tokens.append(_Token(kind, value, line, col))
        elif kind == "op":
            tokens.append(_Token(value, value, line, col))
        if kind == "newline":
            line, col = line + 1, 1
        elif kind != "comment":
            col += len(value)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class ProblemFile:
    __slots__ = ("vars", "f")

    def __init__(self, vars, f):
        self.vars = list(vars)
        self.f = f

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return self.vars == other.vars and self.f == other.f

    def crit_locus(self):
        return make_crit_locus(self.f, len(self.vars), self.vars)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.var_index = {}
        self.m = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, message=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(message or f"expected {kind!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return self.advance()

    def keyword(self, word, message):
        tok = self.advance()
        if tok.kind != "ident" or tok.value != word:
            raise ParseError(message, tok.line, tok.col)
        return tok

    def parse_problem(self):
        head = self.keyword("vars", "problem must start with 'vars'")
        names = []
        while self.peek().kind == "ident":
            names.append(self.advance().value)
        if not names:
            tok = self.peek()
            raise ParseError("need at least one variable", tok.line, tok.col)
        if len(set(names)) != len(names):
            raise ParseError("variable names must be unique", head.line, head.col)
        self.expect(";", "expected ';' after variable list")
        self.keyword("f", "expected 'f = <expr>;'")
        self.expect("=", "expected '=' after 'f'")
        self.var_index = {name: i + 1 for i, name in enumerate(names)}
        self.m = len(names)
        f = self.parse_expr()
        self.expect(";", "expected ';' after f")
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return ProblemFile(names, f)

    def parse_expr(self):
        if self.peek().kind == "-":
            self.advance()
            acc = -self.parse_term()
        else:
            acc = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        base = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number")
            if tok.value.denominator != 1 or tok.value < 0:
                raise ParseError("exponent must be a natural number",
                                 tok.line, tok.col)
            if tok.value >= codec(self.m).limit:
                raise ExponentOverflow(
                    f"exponent {tok.value} (line {tok.line}, col {tok.col}) "
                    f"is not below {codec(self.m).limit}")
            return base ** int(tok.value)
        return base

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            idx = self.var_index.get(tok.value)
            if idx is None:
                raise UnknownVariable(f"unknown variable {tok.value!r}",
                                      tok.line, tok.col)
            return Element.y(self.m, idx)
        if tok.kind == "number":
            self.advance()
            return Element.const(self.m, tok.value)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.col)
            self.depth += 1
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_problem(text: str) -> ProblemFile:
    """Parse the problem-file grammar; exact rationals, positions on error."""
    return _Parser(_tokenize(text)).parse_problem()


# ---------------------------------------------------------------------------
# Reports and command dispatch
# ---------------------------------------------------------------------------

class Report:
    __slots__ = ("command", "status", "payload", "residual_terms", "timing_ms")

    def __init__(self, command, status, payload, residual_terms=None,
                 timing_ms=0):
        self.command = command
        self.status = status
        self.payload = payload
        self.residual_terms = residual_terms
        self.timing_ms = timing_ms

    def as_dict(self):
        out = {"schema_version": SCHEMA_VERSION, "command": self.command,
               "status": self.status, "payload": self.payload,
               "timing_ms": self.timing_ms}
        if self.residual_terms is not None:
            out["residual_terms"] = self.residual_terms
        return out

    @property
    def exit_code(self):
        return {"ok": 0, "fail": 1, "error": 2}[self.status]


def _residual_terms(op):
    view = op.series()
    return [[format_monomial(key), str(view[key])] for key in sorted(view)]


def _read_flags(cmd, flags):
    """The settings of ``cmd``, in table order: each flag if set (an explicit
    0 is kept), else its default.  Refused: an unset required flag, an
    unknown kind, an integer setting whose text is not an optional ``-`` and
    ASCII digits, and one out of ``_setting``'s range, 0..2^15 - 1."""
    settings = {}
    for name, default in COMMAND_FLAGS[cmd].items():
        raw = default if flags.get(name) is None else flags[name]
        if raw is None:
            raise QShiftError(f"{name} is required")
        if name == "kind":
            if raw not in _KIND_MAP:
                raise QShiftError(f"kind must be one of "
                                  f"{', '.join(_KIND_MAP)}, not {raw!r}")
            settings[name] = _KIND_MAP[raw]
            continue
        text = str(raw)
        if not _INTEGER.fullmatch(text):
            raise QShiftError(f"{name} must be an integer, not {raw}")
        settings[name] = _setting(name, int(text))
    return settings


def _error_payload(exc):
    return {"reason": str(exc) or repr(exc), "error_type": type(exc).__name__}


def run_command(cmd: str, problem: ProblemFile, flags=None) -> Report:
    """Execute one command against a parsed problem file.  A flag that the
    command does not read is refused; a flag set to None is unset."""
    flags = dict(flags or {})
    t0 = time.monotonic()
    status = "ok"
    payload = {}
    residual_terms = None
    try:
        if cmd not in COMMAND_FLAGS:
            raise QShiftError(f"unknown command {cmd!r}")
        unread = [name for name, value in flags.items()
                  if value is not None and name not in COMMAND_FLAGS[cmd]]
        if unread:
            raise UsageError(
                f"{cmd} does not read the flag {unread[0]!r}; its flags are: "
                f"{', '.join(COMMAND_FLAGS[cmd]) or 'none'}")
        X = problem.crit_locus()
        settings = _read_flags(cmd, flags)
        if cmd == "milnor":
            n = milnor_number(X)
            payload = {"milnor": int(n), **n.certificate}
        elif cmd == "vc-dims":
            payload = twisted_derham_dims(X)
        elif cmd == "koszul-dims":
            payload = koszul_dims_at_hbar_zero(X)
        elif cmd == "check-mc":
            residual = mc_residual(X, bv_quantisation(X))
            residual_terms = _residual_terms(residual)
            payload = {"residual_zero": residual.is_zero()}
            if not residual.is_zero():
                status = "fail"
                payload["reason"] = "master-equation residual is nonzero"
        elif cmd == "check-compat":
            size = settings["window"]
            window = SearchWindow(size, size, size + 2)
            verdict = check_compatibility(canonical_symplectic(X),
                                          bv_quantisation(X), X, window)
            payload = {"verdict": verdict.kind, "window": window.as_dict()}
            if verdict.witness is not None:
                payload["witness_terms"] = _residual_terms(verdict.witness)
        elif cmd == "check-selfdual":
            profile = solve_sign_profile(X)
            verdict = is_self_dual(bv_quantisation(X))
            payload = {"verdict": verdict.kind, "profile": profile}
        elif cmd == "eigen":
            payload = nu_eigen_analysis(X, settings["p"], settings["k"],
                                        settings["max_degree"])
        elif cmd == "filtration":
            payload = filtration_dims(settings["kind"], settings["level"],
                                      settings["p"], settings["hbar_max"], X,
                                      settings["max_degree"])
        if cmd in _FAIL_REASONS and not verdict.ok():
            status = "fail"
            payload["reason"] = _FAIL_REASONS[cmd]
            residual_terms = _residual_terms(verdict.residual)
    except (QShiftError, KeyError, ValueError, ArithmeticError) as exc:
        status = "error"
        payload = _error_payload(exc)
    timing_ms = int((time.monotonic() - t0) * 1000)
    return Report(cmd, status, payload, residual_terms, timing_ms)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """The parser of one command: a bad argument raises UsageError, which
    ``main`` answers with an error report, instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_argparser():
    """One subcommand per entry of COMMAND_FLAGS, taking the problem file
    and its flags as strings; ``run_command`` checks their values."""
    ap = argparse.ArgumentParser(
        prog="qshift",
        description="Exact checks and cohomology for BV quantisations of "
                    "derived critical loci of polynomials.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)
    for cmd, defaults in COMMAND_FLAGS.items():
        p = sub.add_parser(cmd)
        p.add_argument("file", help="problem file (vars ...; f = ...;)")
        for name, default in defaults.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           help="required" if default is None
                           else f"default {default}")
    return ap


def _run_file(cmd, path, flags):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return Report(cmd, "error", {"reason": str(exc), "error_type": "IOError"})
    try:
        return run_command(cmd, parse_problem(text), flags)
    except Exception as exc:
        # last resort for a fault in the engine: an escaping exception
        # would exit 1, which means "identity violated"
        if not isinstance(exc, QShiftError):
            import traceback  # only on this path: it slows start-up
            traceback.print_exc(limit=-10)  # the innermost frames
        return Report(cmd, "error", _error_payload(exc))


def main(argv=None) -> int:
    """Run one command.  An unknown or missing command exits 2 from
    argparse; a bad argument to a known command gets an error report."""
    args = argparse.Namespace()
    try:
        # argparse sets args.command before it parses the command's own
        # arguments, so a bad one is reported under its command
        _, extra = _build_argparser().parse_known_args(argv, args)
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        report = Report(args.command, "error", _error_payload(exc))
    else:
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("command", "file")}
        report = _run_file(args.command, args.file, flags)
    if report.status != "ok":
        print(f"qshift: {report.status}: "
              f"{report.payload.get('reason', '')}", file=sys.stderr)
    print(json.dumps(report.as_dict(), indent=2))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
