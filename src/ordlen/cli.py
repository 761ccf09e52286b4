"""Command-line front end: a small batch language for invariant computations.

Grammar (whitespace-insensitive, '#' comments):

    script  := stmt+
    stmt    := "ring" ident ("," ident)* | ident "=" ideal | command
    ideal   := "0" | mono ("," mono)*
    mono    := factor ("*" factor)*
    factor  := ident ("^" integer)?
    command := "len" ref | "cycle" ref | "ass" ref | "filtration" ref
             | "open" ref ref | "iopen" integer ref ref | "closure" ref ref
             | "homvanishes" ref ref | "submodlen" ref ordinal
    ordinal := term ("+" term)* ;  term := integer | integer? "w" ("^" integer)?
    ref     := ident | ident "/" ident      (R/I, respectively J/I)

As an extension, the integer literal "1" is accepted as a monomial, so the
unit ideal can be written explicitly.

Exit codes: 0 success, 1 parse error, 2 semantic error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple

from . import invariants, topology
from .chow import Cycle, PrimeSupport
from .errors import OrdlenError, ResourceCapError, TooManyVariablesError
from .monomial import MonomialIdeal, SubquotientModule, unit_ideal
from .ordinal import Ordinal


class ParseError(OrdlenError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("parse error at line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class SemanticError(OrdlenError):
    pass


# Work grows steeply with the variable count, so a ring declared by a script
# is capped at desk scale (CLI flag --max-vars).
DEFAULT_MAX_VARS = 16

# ---------------------------------------------------------------- lexer

# The one place a command's shape is written: its argument kinds in order,
# "r" a module reference, "i" an integer (possibly negative), "o" an ordinal.
_COMMANDS = {
    "len": "r",
    "cycle": "r",
    "ass": "r",
    "filtration": "r",
    "open": "rr",
    "iopen": "irr",
    "closure": "rr",
    "homvanishes": "rr",
    "submodlen": "ro",
}

# Matched one line at a time: the whitespace before a token, then the end of
# the line, a comment running to it, a run of ASCII digits (str.isdigit()
# also takes "²", which int() rejects), a run of word characters (isalnum()
# or "_") or any other single character.
_TOKEN = re.compile(r"(\s*)(#.*|$|[0-9]+|\w+|.)")
# A token's kind by its first character.  A word starting with any other
# letter is an IDENT too; one starting with "²", "½" or "Ⅷ" (isalnum() but
# not isalpha()) is an error, like any other character not listed here.
_KINDS = (dict.fromkeys(",=^*/+-", "SYM") | dict.fromkeys("0123456789", "INT")
          | dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "IDENT"))

# A token is (kind, value, line, col): kind IDENT, INT, SYM or EOF, and the
# 1-based line and column of its first character.
Token = tuple[str, str, int, int]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        col = 1
        for space, value in _TOKEN.findall(chars):
            col += len(space)
            kind = _KINDS.get(value[:1])
            if kind is None:
                if not value or value[0] == "#":
                    break
                if not value[0].isalpha():
                    raise ParseError("unexpected character %r" % value[0], line, col)
                kind = "IDENT"
            tokens.append((kind, value, line, col))
            col += len(value)
    # after a comment with no newline, the end of input stays at its '#'
    tokens.append(("EOF", "", len(lines), col))
    return tokens


# ---------------------------------------------------------------- syntax tree


class Name(str):
    """An identifier; its line and column are for messages only, so names compare as text."""

    def __new__(cls, text: str, line: int, col: int) -> Name:
        self = super().__new__(cls, text)
        self.line, self.col = line, col
        return self

    def __getnewargs__(self) -> tuple[str, int, int]:
        return str(self), self.line, self.col

    text = property(str.__str__)


# plain named tuples without the Value guard: no caller compares nodes of different kinds
RingDecl = namedtuple("RingDecl", "names")
# each monomial is a tuple of (variable name, exponent) factors; the
# zero ideal is the empty tuple, the unit literal a monomial of no factors
IdealExpr = namedtuple("IdealExpr", "monomials")
Binding = namedtuple("Binding", "name ideal")
Command = namedtuple("Command", "kind refs index ordinal", defaults=(None, None))
Script = namedtuple("Script", "statements", defaults=((),))


class Ref(namedtuple("Ref", "lower upper")):
    # upper None means the unit ideal (module R/I)
    __slots__ = ()

    def display(self) -> str:
        if self.upper is None:
            return "R/%s" % self.lower.text
        return "%s/%s" % (self.upper.text, self.lower.text)


# ---------------------------------------------------------------- parser


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        # a second EOF, so that peek(1) never runs off the end
        self.tokens.append(self.tokens[-1])
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def error(self, message: str) -> ParseError:
        kind, value, line, col = self.peek()
        shown = value if kind != "EOF" else "end of input"
        return ParseError("%s (found %r)" % (message, shown), line, col)

    def accept(self, sym: str) -> bool:
        """Consume the symbol sym if it comes next."""
        if self.peek()[:2] == ("SYM", sym):
            self.pos += 1
            return True
        return False

    def expect_ident(self, what: str = "identifier") -> Name:
        kind, value, line, col = self.peek()
        if kind != "IDENT":
            raise self.error("expected %s" % what)
        self.pos += 1
        return Name(value, line, col)

    def expect_int(self) -> int:
        kind, value, line, col = self.peek()
        if kind != "INT":
            raise self.error("expected integer")
        self.pos += 1
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal of %d digits is too long" % len(value),
                             line, col) from None

    def parse_script(self) -> Script:
        if self.peek()[0] == "EOF":
            raise self.error("empty script")
        statements = []
        while self.peek()[0] != "EOF":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        kind, value, _, _ = self.peek()
        if kind != "IDENT":
            raise self.error("expected a statement")
        if value == "ring":
            return self.parse_ring()
        if value in _COMMANDS:
            return self.parse_command()
        if self.peek(1)[:2] == ("SYM", "="):
            return self.parse_binding()
        raise self.error("expected 'ring', a command, or an ideal binding")

    def parse_ring(self) -> RingDecl:
        self.pos += 1
        names = [self.expect_ident("variable name")]
        while self.accept(","):
            names.append(self.expect_ident("variable name"))
        return RingDecl(tuple(names))

    def parse_binding(self) -> Binding:
        # parse_statement has seen the name and its "="
        _, value, line, col = self.peek()
        self.pos += 2
        return Binding(Name(value, line, col), self.parse_ideal())

    def parse_ideal(self) -> IdealExpr:
        if self.peek()[:2] == ("INT", "0"):
            self.pos += 1
            return IdealExpr(())
        monos = [self.parse_monomial()]
        while self.accept(","):
            monos.append(self.parse_monomial())
        return IdealExpr(tuple(monos))

    def parse_monomial(self) -> tuple[tuple[Name, int], ...]:
        kind, value, _, _ = self.peek()
        if kind == "INT":
            if value == "1":
                self.pos += 1
                return ()
            raise self.error("only the literals 0 and 1 are allowed in ideals")
        factors = [self.parse_factor()]
        while self.accept("*"):
            factors.append(self.parse_factor())
        return tuple(factors)

    def parse_factor(self) -> tuple[Name, int]:
        name = self.expect_ident("variable name")
        exp = 1
        if self.accept("^"):
            exp = self.expect_int()
        return (name, exp)

    def parse_ref(self) -> Ref:
        first = self.expect_ident("ideal name")
        if self.accept("/"):
            second = self.expect_ident("ideal name")
            return Ref(lower=second, upper=first)
        return Ref(lower=first, upper=None)

    def parse_ordinal(self) -> Ordinal:
        terms = [self.parse_ordinal_term()]
        while self.accept("+"):
            terms.append(self.parse_ordinal_term())
        return Ordinal.from_coeffs(terms)

    def parse_ordinal_term(self) -> tuple[int, int]:
        coeff = self.expect_int() if self.peek()[0] == "INT" else None
        if self.peek()[:2] == ("IDENT", "w"):
            self.pos += 1
            exp = 1
            if self.accept("^"):
                exp = self.expect_int()
            return (exp, 1 if coeff is None else coeff)
        if coeff is None:
            raise self.error("expected an ordinal term")
        return (0, coeff)

    def parse_command(self) -> Command:
        kind = self.peek()[1]
        self.pos += 1
        refs, index, ordinal = [], None, None
        for arg in _COMMANDS[kind]:
            if arg == "r":
                refs.append(self.parse_ref())
            elif arg == "i":
                index = self.parse_signed_int()
            else:
                ordinal = self.parse_ordinal()
        return Command(kind, tuple(refs), index, ordinal)

    def parse_signed_int(self) -> int:
        # grammar says integer; a leading '-' is tolerated for the i = -1 case
        neg = self.accept("-")
        val = self.expect_int()
        return -val if neg else val


def parse(text: str) -> Script:
    return Parser(text).parse_script()


# ---------------------------------------------------------------- rendering


def render_monomial(m, names: list[str]) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append("%s^%d" % (names[i], e))
    return "*".join(parts) if parts else "1"


def render_ideal(i: MonomialIdeal, names: list[str]) -> str:
    if i.is_zero:
        return "(0)"
    return "(%s)" % ", ".join(render_monomial(g, names) for g in i.gens)


def render_prime(p: PrimeSupport, names: list[str]) -> str:
    if not p.vars:
        return "(0)"
    return "(%s)" % ",".join(names[v] for v in sorted(p.vars))


def render_cycle(c: Cycle, names: list[str]) -> str:
    if c.is_zero:
        return "0"
    parts = []
    for p, mult in c.terms:
        head = "" if mult == 1 else str(mult)
        parts.append("%s[%s]" % (head, render_prime(p, names)))
    return " + ".join(parts)


def ordinal_json(a: Ordinal) -> dict:
    return {str(e): c for e, c in a.terms}


def cycle_json(c: Cycle, names: list[str]) -> list[dict]:
    return [{"vars": [names[v] for v in sorted(p.vars)], "mult": mult} for p, mult in c.terms]


def ideal_json(i: MonomialIdeal, names: list[str]) -> list[str]:
    return [render_monomial(g, names) for g in i.gens]


# ---------------------------------------------------------------- evaluation

# json.dumps builds an encoder on every call that passes it an option
_json_line = json.JSONEncoder(ensure_ascii=False).encode


class Runner:
    def __init__(
        self, as_json: bool = False, ascii_only: bool = False, out=None,
        max_vars: int = DEFAULT_MAX_VARS,
    ):
        self.as_json = as_json
        self.ascii_only = ascii_only
        self.max_vars = max_vars
        self.out = out if out is not None else sys.stdout
        self.names: list[str] | None = None
        self.ideals: dict[str, MonomialIdeal] = {}
        # the modules J/I resolved since the last binding, keyed by Ref; no witness K/I
        self.modules: dict[Ref, SubquotientModule] = {}

    def emit(self, text_line: str, json_obj: dict) -> None:
        if self.as_json:
            self.out.write(_json_line(json_obj) + "\n")
        else:
            self.out.write(text_line + "\n")
        self.out.flush()

    def disp(self, a: Ordinal) -> str:
        return a.display(ascii_only=self.ascii_only)

    def run(self, script: Script) -> None:
        for stmt in script.statements:
            if isinstance(stmt, RingDecl):
                self.exec_ring(stmt)
            elif isinstance(stmt, Binding):
                self.exec_binding(stmt)
            else:
                self.exec_command(stmt)

    def exec_ring(self, stmt: RingDecl) -> None:
        if self.names is not None:
            raise SemanticError("ring already declared")
        names = [n.text for n in stmt.names]
        if len(set(names)) != len(names):
            raise SemanticError("duplicate variable name in ring declaration")
        if len(names) > self.max_vars:
            raise TooManyVariablesError(
                "%d variables exceeds the cap of %d" % (len(names), self.max_vars)
            )
        self.names = names

    def require_ring(self) -> list[str]:
        if self.names is None:
            raise SemanticError("no ring declared")
        return self.names

    def exec_binding(self, stmt: Binding) -> None:
        names = self.require_ring()
        n = len(names)
        gens = []
        for mono in stmt.ideal.monomials:
            exps = [0] * n
            for var, exp in mono:
                if var.text not in names:
                    raise SemanticError(
                        "undefined variable %r at line %d, column %d"
                        % (var.text, var.line, var.col)
                    )
                exps[names.index(var.text)] += exp
            gens.append(tuple(exps))
        self.ideals[stmt.name.text] = MonomialIdeal.make(n, gens)
        self.modules.clear()

    def lookup(self, name: Name) -> MonomialIdeal:
        if name.text not in self.ideals:
            raise SemanticError(
                "undefined ideal %r at line %d, column %d" % (name.text, name.line, name.col)
            )
        return self.ideals[name.text]

    def resolve(self, ref: Ref) -> SubquotientModule:
        """The module J/I (or R/I) named by ref, checked I <= J and cached once per
        binding state; only modules are cached, never submodules."""
        m = self.modules.get(ref)
        if m is None:
            lower = self.lookup(ref.lower)
            upper = unit_ideal(lower.ambient_n) if ref.upper is None else self.lookup(ref.upper)
            m = self.modules[ref] = SubquotientModule(lower, upper)
        return m

    def exec_command(self, cmd: Command) -> None:
        names = self.require_ring()
        m = self.resolve(cmd.refs[0])
        disp = cmd.refs[0].display()
        # homvanishes calls its first module the source; key order is output
        obj = {"cmd": cmd.kind, "source" if cmd.kind == "homvanishes" else "module": disp}
        if cmd.kind in ("open", "iopen", "closure"):
            witness = cmd.refs[1]
            if witness.upper is not None:
                raise SemanticError("a submodule witness must be a single ideal name")
            k = self.lookup(witness.lower)  # topology checks I <= K <= J
        if cmd.kind == "len":
            mu = invariants.length(m)
            text = "len %s = %s" % (disp, self.disp(mu))
            obj.update(length=ordinal_json(mu), display=self.disp(mu))
        elif cmd.kind == "cycle":
            fc = invariants.fundamental_cycle(m)
            text = render_cycle(fc, names)
            obj["cycle"] = cycle_json(fc, names)
        elif cmd.kind == "ass":
            primes = sorted(invariants.associated_primes(m), key=PrimeSupport.sort_key)
            text = ", ".join(render_prime(p, names) for p in primes) if primes else "none"
            obj["primes"] = [[names[v] for v in sorted(p.vars)] for p in primes]
        elif cmd.kind == "filtration":
            ideals = invariants.filtration_chain(m)
            joiner = " <= " if self.ascii_only else " ⊆ "
            text = joiner.join(render_ideal(k, names) for k in ideals)
            obj["ideals"] = [ideal_json(k, names) for k in ideals]
        elif cmd.kind in ("open", "iopen"):
            if cmd.kind == "open":
                opn, label = topology.is_open(m, k), "open"
            else:
                opn, label = topology.is_i_open(m, k, cmd.index), "i-open"
                obj["i"] = cmd.index
            sub_len = invariants.length(SubquotientModule(m.lower, k))
            text = label if opn else "not %s (len = %s)" % (label, self.disp(sub_len))
            obj.update({"submodule": render_ideal(k, names), cmd.kind: opn,
                        "length": ordinal_json(sub_len), "display": self.disp(sub_len)})
        elif cmd.kind == "closure":
            cl = topology.closure(m, k)
            text = render_ideal(cl, names)
            obj.update(submodule=render_ideal(k, names), ideal=ideal_json(cl, names))
        elif cmd.kind == "homvanishes":
            res = topology.hom_vanishes(m, self.resolve(cmd.refs[1]))
            text = "true" if res else "false"
            obj.update(target=cmd.refs[1].display(), vanishes=res)
        else:  # submodlen
            k = invariants.construct_submodule_of_length(m, cmd.ordinal)
            text = render_ideal(k, names)
            obj.update(target=ordinal_json(cmd.ordinal), ideal=ideal_json(k, names))
        self.emit(text, obj)


def run_text(
    text: str, as_json: bool = False, ascii_only: bool = False, out=None, err=None,
    max_vars: int = DEFAULT_MAX_VARS,
) -> int:
    """Parse and execute a script; returns the process exit code."""
    err = err if err is not None else sys.stderr
    try:
        script = parse(text)
    except ParseError as exc:
        err.write("%s\n" % exc)
        return 1
    runner = Runner(as_json=as_json, ascii_only=ascii_only, out=out, max_vars=max_vars)
    try:
        runner.run(script)
    except ResourceCapError as exc:
        err.write("resource cap: %s\n" % exc)
        return 3
    except OrdlenError as exc:
        err.write("semantic error: %s\n" % exc)
        return 2
    return 0


def _eval_script(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    spec = _COMMANDS[args.cmd]
    # "rr": a command with a second ref needs a second ideal
    for kinds, flag, value in (("rr", "--ideal2", args.ideal2), ("i", "--index", args.index),
                               ("o", "--ordinal", args.ordinal)):
        if kinds in spec and (value is None or value == ""):
            parser.error("--cmd %s needs %s" % (args.cmd, flag))
    lines = ["ring %s" % args.ring, "I = %s" % args.ideal]
    if args.ideal2:
        lines.append("K = %s" % args.ideal2)
    operands = {"r": ["I", "K"], "i": [str(args.index)], "o": [args.ordinal]}
    lines.append(" ".join([args.cmd] + [operands[kind].pop(0) for kind in spec]))
    text = "\n".join(lines) + "\n"
    try:
        statements = parse(text).statements
    except ParseError:
        return text  # run_text reports it, with exit 1
    # line breaks are whitespace, so an operand could carry statements of its own
    if len(statements) != len(lines):
        parser.error("an operand adds statements beyond the one command")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ordlen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object per command")
    common.add_argument("--ascii", action="store_true", help="ASCII output (w for ω)")
    common.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS,
                        help="cap on the variables a ring may declare (default %(default)s)")

    p_run = sub.add_parser("run", parents=[common], help="execute a script file")
    p_run.add_argument("script", help="UTF-8 script file")

    p_eval = sub.add_parser("eval", parents=[common], help="run a single command")
    p_eval.add_argument("--ring", required=True, help="comma-separated variable names")
    p_eval.add_argument("--ideal", required=True, help="generators of the ideal I")
    p_eval.add_argument("--ideal2", default=None, help="generators of a second ideal K")
    p_eval.add_argument("--cmd", required=True, choices=list(_COMMANDS),
                        help="command to run against I (and K)")
    p_eval.add_argument("--index", type=int, default=None, help="index for iopen")
    p_eval.add_argument("--ordinal", default=None, help="target ordinal for submodlen")

    args = parser.parse_args(argv)
    if args.mode == "run":
        try:
            with open(args.script, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            sys.stderr.write("cannot read script: %s\n" % exc)
            return 2
    else:
        text = _eval_script(args, p_eval)
    return run_text(text, as_json=args.json, ascii_only=args.ascii, max_vars=args.max_vars)


if __name__ == "__main__":
    sys.exit(main())
