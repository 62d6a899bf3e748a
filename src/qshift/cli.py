"""Problem-file DSL, command dispatch, and machine-readable JSON reports.

Grammar (a deliberately small, diff-friendly surface):

    problem := "vars" ident+ ";" "f" "=" expr ";" (option ";")*
    option  := ident "=" (rational | ident)
    expr    := ["-"] term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := base ("^" nat)?
    base    := ident | rational | "(" expr ")"

Rational literals are integers or a/b fractions.  Reports are JSON on
stdout (schema shipped as ``report_schema.json``), diagnostics on stderr;
exit code 0 means status ok, 1 a violated identity, 2 bad input or an
answer that cannot be certified.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .coefficients import codec, format_monomial
from .cohomology import (DEGREE_TRUNCATED, WEIGHT_GRADED,
                         koszul_dims_at_hbar_zero, milnor_number,
                         twisted_derham_dims)
from .derham import (SearchWindow, canonical_symplectic, check_compatibility)
from .duality import is_self_dual, solve_sign_profile
from .errors import ParseError, QShiftError, UnknownVariable
from .gca import Element, make_crit_locus
from .quantise import (FiltrationLabel, bv_quantisation, filtration_dims,
                       mc_residual, nu_eigen_analysis)

SCHEMA_VERSION = 1

OPTION_NAMES = ("mode", "max_degree", "window")
MAX_NESTING = 100  # parentheses; the parser recurses four frames per level

_KIND_MAP = {"g": FiltrationLabel.G, "ftilde": FiltrationLabel.FTILDE,
             "conv": FiltrationLabel.CONV}


# ---------------------------------------------------------------------------
# Tokeniser / parser
# ---------------------------------------------------------------------------

class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j:k])
                if den == 0:
                    raise ParseError("zero denominator", line, start_col)
                tokens.append(_Token("number", Fraction(num, den), line, start_col))
                col += k - i
                i = k
            else:
                tokens.append(_Token("number", Fraction(num), line, start_col))
                col += j - i
                i = j
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in ";=+-*^()":
            tokens.append(_Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class ProblemFile:
    __slots__ = ("vars", "f", "options")

    def __init__(self, vars, f, options=None):
        self.vars = list(vars)
        self.f = f
        self.options = dict(options or {})

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return (self.vars == other.vars and self.f == other.f
                and self.options == other.options)

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
            raise ParseError(message or f"expected {kind!r}, found {tok.value!r}",
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
        options = {}
        while self.peek().kind == "ident":
            tok = self.advance()
            if tok.value not in OPTION_NAMES:
                raise ParseError(f"unknown option {tok.value!r}; options are "
                                 f"{', '.join(OPTION_NAMES)}", tok.line, tok.col)
            self.expect("=", "expected '=' in option")
            value = self.advance()
            if value.kind not in ("number", "ident"):
                raise ParseError("option value must be a rational or identifier",
                                 value.line, value.col)
            options[tok.value] = value.value
            self.expect(";", "expected ';' after option")
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
        return ProblemFile(names, f, options)

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
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)


def parse_problem(text: str) -> ProblemFile:
    """Parse the problem-file grammar; exact rationals, positions on error."""
    return _Parser(_tokenize(text)).parse_problem()


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_polynomial(f: Element, names) -> str:
    """Canonical printable form of a polynomial over the declared names."""
    if f.is_zero():
        return "0"
    C = codec(f.m)
    parts = []
    # descending in the decoded ((a, eta), e), which orders the y exponents
    for (a, _, _, _, _), coeff in sorted(
            ((C.decode(k), c) for k, c in f.terms.items()),
            key=lambda t: (t[0][:2], t[0][4]), reverse=True):
        mono = []
        for i, e in enumerate(a):
            if e == 1:
                mono.append(names[i])
            elif e > 1:
                mono.append(f"{names[i]}^{e}")
        body = "*".join(mono)
        c = abs(coeff)
        if not body:
            piece = _format_rational(c)
        elif c == 1:
            piece = body
        else:
            piece = f"{_format_rational(c)}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def print_problem(problem: ProblemFile) -> str:
    """Canonical text; re-parsing yields an identical structure."""
    lines = [f"vars {' '.join(problem.vars)};",
             f"f = {format_polynomial(problem.f, problem.vars)};"]
    for key in sorted(problem.options):
        value = problem.options[key]
        text = _format_rational(value) if isinstance(value, Fraction) else str(value)
        lines.append(f"{key} = {text};")
    return "\n".join(lines) + "\n"


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


def _setting(name, problem, flags, default):
    """The flag, else the problem-file option, else the default: the first
    that is set, so an explicit 0 is kept."""
    for value in (flags.get(name), problem.options.get(name)):
        if value is not None:
            return value
    return default


def _int_setting(name, problem, flags, default):
    """A non-negative integer setting (a window size, p, the top hbar
    exponent): a non-integral value is refused, not truncated, and so is a
    negative one."""
    value = Fraction(_setting(name, problem, flags, default))
    if value.denominator != 1:
        raise QShiftError(f"{name} must be an integer, not {value}")
    if value < 0:
        raise QShiftError(f"{name} must be >= 0, not {value}")
    return int(value)


def _vc_mode(problem, flags):
    """``vc-dims`` mode; None lets ``twisted_derham_dims`` choose."""
    mode = _setting("mode", problem, flags, None)
    if mode in ("weight", WEIGHT_GRADED):
        return WEIGHT_GRADED
    if mode in ("truncate", "degree", DEGREE_TRUNCATED):
        return DEGREE_TRUNCATED
    if mode is None:
        return None
    raise QShiftError(f"unknown truncation mode {mode!r}")


def run_command(cmd: str, problem: ProblemFile, flags=None) -> Report:
    """Execute one command against a parsed problem file."""
    flags = dict(flags or {})
    t0 = time.monotonic()
    status = "ok"
    payload = {}
    residual_terms = None
    try:
        if cmd == "milnor":
            n = milnor_number(problem.f, len(problem.vars), problem.vars)
            payload = {"milnor": int(n), **n.certificate}
        elif cmd == "vc-dims":
            payload = twisted_derham_dims(problem.crit_locus(),
                                          _vc_mode(problem, flags)).as_dict()
        elif cmd == "koszul-dims":
            payload = koszul_dims_at_hbar_zero(problem.crit_locus()).as_dict()
        elif cmd == "check-mc":
            X = problem.crit_locus()
            residual = mc_residual(X, bv_quantisation(X))
            residual_terms = _residual_terms(residual)
            payload = {"residual_zero": residual.is_zero()}
            if not residual.is_zero():
                status = "fail"
                payload["reason"] = "master-equation residual is nonzero"
        elif cmd == "check-compat":
            X = problem.crit_locus()
            size = _int_setting("window", problem, flags, 3)
            window = SearchWindow(order_cap=size, ydeg_cap=size,
                                  hbar_max=size + 2)
            verdict = check_compatibility(canonical_symplectic(X),
                                          bv_quantisation(X), X, window)
            payload = {"verdict": verdict.kind, "window": window.as_dict()}
            if verdict.kind == "CoboundaryWitness":
                payload["witness_terms"] = _residual_terms(verdict.witness)
            if not verdict.ok():
                status = "fail"
                payload["reason"] = "no coboundary witness in the window"
                residual_terms = _residual_terms(verdict.residual)
        elif cmd == "check-selfdual":
            X = problem.crit_locus()
            profile = solve_sign_profile(X)
            verdict = is_self_dual(bv_quantisation(X), profile)
            payload = {"verdict": verdict.kind,
                       "profile": dict(profile.gen_signs)}
            if not verdict.ok():
                status = "fail"
                payload["reason"] = "star involution does not fix the quantisation"
                residual_terms = _residual_terms(verdict.residual)
        elif cmd == "eigen":
            X = problem.crit_locus()
            p = int(flags["p"])
            k = int(flags["k"])
            report = nu_eigen_analysis(
                X, p, k, _int_setting("max_degree", problem, flags, 2))
            payload = report.as_dict()
        elif cmd == "filtration":
            X = problem.crit_locus()
            kind = _KIND_MAP[_setting("kind", problem, flags, "ftilde")]
            level = int(_setting("level", problem, flags, 0))
            p = _int_setting("p", problem, flags, 2)
            bound = _int_setting("max_degree", problem, flags, 2)
            degrees = range(-X.m, X.m + 1)
            hbar_exps = range(-1, _int_setting("hbar_max", problem, flags, 4) + 1)
            table = filtration_dims(FiltrationLabel(kind, level), p, degrees,
                                    hbar_exps, X, bound)
            payload = {"dims": [{"degree": d, "hbar_exp": e, "dim": n}
                                for (d, e), n in sorted(table.items())],
                       "kind": kind, "level": level, "p": p}
        else:
            raise QShiftError(f"unknown command {cmd!r}")
    except (QShiftError, KeyError, ValueError, ArithmeticError) as exc:
        status = "error"
        payload = {"reason": str(exc) or repr(exc),
                   "error_type": type(exc).__name__}
    timing_ms = int((time.monotonic() - t0) * 1000)
    return Report(cmd, status, payload, residual_terms, timing_ms)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="qshift",
        description="Exact checks and cohomology for BV quantisations of "
                    "derived critical loci of polynomials.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (vars ...; f = ...;)")

    for name in ("milnor", "koszul-dims", "check-mc", "check-selfdual"):
        common(sub.add_parser(name))
    p = sub.add_parser("vc-dims")
    common(p)
    p.add_argument("--mode", choices=["weight", "truncate"], default=None)
    p = sub.add_parser("check-compat")
    common(p)
    p.add_argument("--window", type=int, default=None)
    p = sub.add_parser("eigen")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    p = sub.add_parser("filtration")
    common(p)
    p.add_argument("--kind", choices=["g", "ftilde", "conv"], default="ftilde")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    p.add_argument("--hbar-max", type=int, default=4, dest="hbar_max")
    return ap


def main(argv=None) -> int:
    ap = _build_argparser()
    args = ap.parse_args(argv)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "file")}
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        report = Report(args.command, "error",
                        {"reason": str(exc), "error_type": "IOError"})
    else:
        try:
            report = run_command(args.command, parse_problem(text), flags)
        except Exception as exc:
            # last resort for a fault in the engine: an escaping exception
            # would exit 1, which means "identity violated"
            if not isinstance(exc, QShiftError):
                import traceback  # only on this path: it slows start-up
                traceback.print_exc(limit=-10)  # the innermost frames
            report = Report(args.command, "error",
                            {"reason": str(exc) or repr(exc),
                             "error_type": type(exc).__name__})
    if report.status != "ok":
        print(f"qshift: {report.status}: "
              f"{report.payload.get('reason', '')}", file=sys.stderr)
    print(json.dumps(report.as_dict(), indent=2))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
