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
import sys
from dataclasses import dataclass, field

from . import invariants, monomial, topology
from .chow import Cycle, PrimeSupport
from .errors import (
    InvalidSubquotientError,
    OrdlenError,
    ResourceCapError,
    SubmoduleSearchError,
    TooManyVariablesError,
    ZeroModuleError,
)
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

_SYMBOLS = ",=^*/+-"
_COMMANDS = {
    "len": 1,
    "cycle": 1,
    "ass": 1,
    "filtration": 1,
    "open": 2,
    "iopen": 2,
    "closure": 2,
    "homvanishes": 2,
    "submodlen": 1,
}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, EOF
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c.isspace():
            i, col = i + 1, col + 1
        elif c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in _SYMBOLS:
            tokens.append(Token("SYM", c, line, col))
            i, col = i + 1, col + 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------- syntax tree


@dataclass(frozen=True)
class Name:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class RingDecl:
    names: tuple[Name, ...]


@dataclass(frozen=True)
class IdealExpr:
    # each monomial is a tuple of (variable name, exponent) factors; the
    # zero ideal is the empty tuple, the unit literal a monomial of no factors
    monomials: tuple[tuple[tuple[Name, int], ...], ...]
    is_zero: bool = False


@dataclass(frozen=True)
class Binding:
    name: Name
    ideal: IdealExpr


@dataclass(frozen=True)
class Ref:
    lower: Name
    upper: Name | None  # None means the unit ideal (module R/I)

    def display(self) -> str:
        if self.upper is None:
            return "R/%s" % self.lower.text
        return "%s/%s" % (self.upper.text, self.lower.text)


@dataclass(frozen=True)
class Command:
    kind: str
    refs: tuple[Ref, ...]
    index: int | None = None
    ordinal: Ordinal | None = None


@dataclass
class Script:
    statements: list[RingDecl | Binding | Command] = field(default_factory=list)


# ---------------------------------------------------------------- parser


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        shown = tok.value if tok.kind != "EOF" else "end of input"
        return ParseError("%s (found %r)" % (message, shown), tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.value != sym:
            raise self.error("expected %r" % sym)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Name:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error("expected %s" % what)
        self.next()
        return Name(tok.value, tok.line, tok.col)

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise self.error("expected integer")
        self.next()
        return int(tok.value)

    def parse_script(self) -> Script:
        script = Script()
        if self.peek().kind == "EOF":
            raise self.error("empty script")
        while self.peek().kind != "EOF":
            script.statements.append(self.parse_statement())
        return script

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error("expected a statement")
        if tok.value == "ring":
            return self.parse_ring()
        if tok.value in _COMMANDS:
            return self.parse_command()
        nxt = self.peek(1)
        if nxt.kind == "SYM" and nxt.value == "=":
            return self.parse_binding()
        raise self.error("expected 'ring', a command, or an ideal binding")

    def parse_ring(self) -> RingDecl:
        self.next()
        names = [self.expect_ident("variable name")]
        while self.peek().kind == "SYM" and self.peek().value == ",":
            self.next()
            names.append(self.expect_ident("variable name"))
        return RingDecl(tuple(names))

    def parse_binding(self) -> Binding:
        name = self.expect_ident("ideal name")
        self.expect_sym("=")
        return Binding(name, self.parse_ideal())

    def parse_ideal(self) -> IdealExpr:
        tok = self.peek()
        if tok.kind == "INT" and tok.value == "0":
            self.next()
            return IdealExpr((), is_zero=True)
        monos = [self.parse_monomial()]
        while self.peek().kind == "SYM" and self.peek().value == ",":
            self.next()
            monos.append(self.parse_monomial())
        return IdealExpr(tuple(monos))

    def parse_monomial(self) -> tuple[tuple[Name, int], ...]:
        tok = self.peek()
        if tok.kind == "INT":
            if tok.value == "1":
                self.next()
                return ()
            raise self.error("only the literals 0 and 1 are allowed in ideals")
        factors = [self.parse_factor()]
        while self.peek().kind == "SYM" and self.peek().value == "*":
            self.next()
            factors.append(self.parse_factor())
        return tuple(factors)

    def parse_factor(self) -> tuple[Name, int]:
        name = self.expect_ident("variable name")
        exp = 1
        if self.peek().kind == "SYM" and self.peek().value == "^":
            self.next()
            exp = self.expect_int()
        return (name, exp)

    def parse_ref(self) -> Ref:
        first = self.expect_ident("ideal name")
        if self.peek().kind == "SYM" and self.peek().value == "/":
            self.next()
            second = self.expect_ident("ideal name")
            return Ref(lower=second, upper=first)
        return Ref(lower=first, upper=None)

    def parse_ordinal(self) -> Ordinal:
        terms = [self.parse_ordinal_term()]
        while self.peek().kind == "SYM" and self.peek().value == "+":
            self.next()
            terms.append(self.parse_ordinal_term())
        return Ordinal.from_coeffs(terms)

    def parse_ordinal_term(self) -> tuple[int, int]:
        tok = self.peek()
        coeff = None
        if tok.kind == "INT":
            self.next()
            coeff = int(tok.value)
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "w":
            self.next()
            exp = 1
            if self.peek().kind == "SYM" and self.peek().value == "^":
                self.next()
                exp = self.expect_int()
            return (exp, 1 if coeff is None else coeff)
        if coeff is None:
            raise self.error("expected an ordinal term")
        return (0, coeff)

    def parse_command(self) -> Command:
        name = self.next().value
        if name == "iopen":
            idx = self.parse_signed_int()
            return Command(name, (self.parse_ref(), self.parse_ref()), index=idx)
        if name == "submodlen":
            ref = self.parse_ref()
            return Command(name, (ref,), ordinal=self.parse_ordinal())
        refs = tuple(self.parse_ref() for _ in range(_COMMANDS[name]))
        return Command(name, refs)

    def parse_signed_int(self) -> int:
        # grammar says integer; a leading '-' is tolerated for the i = -1 case
        neg = False
        if self.peek().kind == "SYM" and self.peek().value == "-":
            self.next()
            neg = True
        val = self.expect_int()
        return -val if neg else val


def parse(text: str) -> Script:
    return Parser(text).parse_script()


def render_script(script: Script) -> str:
    """Inverse of parse up to formatting: reparsing the output gives an
    equal Script (modulo source positions)."""

    def mono_text(mono: tuple[tuple[Name, int], ...]) -> str:
        if not mono:
            return "1"
        return "*".join(n.text if e == 1 else "%s^%d" % (n.text, e) for n, e in mono)

    lines = []
    for stmt in script.statements:
        if isinstance(stmt, RingDecl):
            lines.append("ring %s" % ",".join(n.text for n in stmt.names))
        elif isinstance(stmt, Binding):
            body = "0" if stmt.ideal.is_zero else ", ".join(
                mono_text(m) for m in stmt.ideal.monomials
            )
            lines.append("%s = %s" % (stmt.name.text, body))
        else:
            refs = " ".join(r.display().removeprefix("R/") for r in stmt.refs)
            if stmt.kind == "iopen":
                lines.append("iopen %d %s" % (stmt.index, refs))
            elif stmt.kind == "submodlen":
                lines.append("submodlen %s %s" % (refs, stmt.ordinal.display(ascii_only=True)))
            else:
                lines.append("%s %s" % (stmt.kind, refs))
    return "\n".join(lines) + "\n"


def script_shape(script: Script):
    """Position-independent structural summary, used for round-trip checks."""

    def strip(obj):
        if isinstance(obj, Name):
            return obj.text
        if isinstance(obj, RingDecl):
            return ("ring", tuple(n.text for n in obj.names))
        if isinstance(obj, Binding):
            return ("bind", obj.name.text, obj.ideal.is_zero,
                    tuple(tuple((n.text, e) for n, e in m) for m in obj.ideal.monomials))
        if isinstance(obj, Command):
            return (obj.kind, tuple(r.display() for r in obj.refs), obj.index, obj.ordinal)
        raise TypeError(obj)

    return tuple(strip(s) for s in script.statements)


# ---------------------------------------------------------------- rendering


def render_monomial(m, names: list[str]) -> str:
    parts = []
    for i, e in enumerate(m.exponents):
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


# ---------------------------------------------------------------- evaluation


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

    def emit(self, text_line: str, json_obj: dict) -> None:
        if self.as_json:
            self.out.write(json.dumps(json_obj, ensure_ascii=False) + "\n")
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
        if stmt.ideal.is_zero:
            self.ideals[stmt.name.text] = monomial.zero_ideal(n)
            return
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

    def lookup(self, name: Name) -> MonomialIdeal:
        if name.text not in self.ideals:
            raise SemanticError(
                "undefined ideal %r at line %d, column %d" % (name.text, name.line, name.col)
            )
        return self.ideals[name.text]

    def resolve(self, ref: Ref) -> SubquotientModule:
        lower = self.lookup(ref.lower)
        if ref.upper is None:
            upper = unit_ideal(lower.ambient_n)
        else:
            upper = self.lookup(ref.upper)
        try:
            return SubquotientModule(lower, upper)
        except InvalidSubquotientError as exc:
            raise SemanticError(str(exc)) from exc

    def resolve_witness(self, m: SubquotientModule, ref: Ref) -> MonomialIdeal:
        if ref.upper is not None:
            raise SemanticError("a submodule witness must be a single ideal name")
        k = self.lookup(ref.lower)
        if not k.contains_ideal(m.lower) or not m.upper.contains_ideal(k):
            raise SemanticError("witness ideal is not between the module's ideals")
        return k

    def exec_command(self, cmd: Command) -> None:
        names = self.require_ring()
        m = self.resolve(cmd.refs[0])
        disp = cmd.refs[0].display()
        if cmd.kind == "len":
            mu = invariants.length(m)
            self.emit(
                "len %s = %s" % (disp, self.disp(mu)),
                {"cmd": "len", "module": disp, "length": ordinal_json(mu),
                 "display": self.disp(mu)},
            )
        elif cmd.kind == "cycle":
            fc = invariants.fundamental_cycle(m)
            self.emit(
                render_cycle(fc, names),
                {"cmd": "cycle", "module": disp, "cycle": cycle_json(fc, names)},
            )
        elif cmd.kind == "ass":
            primes = sorted(invariants.associated_primes(m), key=PrimeSupport.sort_key)
            text = ", ".join(render_prime(p, names) for p in primes) if primes else "none"
            self.emit(
                text,
                {"cmd": "ass", "module": disp,
                 "primes": [[names[v] for v in sorted(p.vars)] for p in primes]},
            )
        elif cmd.kind == "filtration":
            if m.is_zero:
                raise SemanticError("dimension filtration of the zero module")
            d = invariants.basic_invariants(m).dimension
            ideals = [invariants.dimension_filtration(m, i).upper for i in range(d + 1)]
            joiner = " <= " if self.ascii_only else " ⊆ "
            self.emit(
                joiner.join(render_ideal(k, names) for k in ideals),
                {"cmd": "filtration", "module": disp,
                 "ideals": [[render_monomial(g, names) for g in k.gens] for k in ideals]},
            )
        elif cmd.kind == "open":
            k = self.resolve_witness(m, cmd.refs[1])
            opn = topology.is_open(m, k)
            sub_len = invariants.length(m.submodule(k))
            text = "open" if opn else "not open (len = %s)" % self.disp(sub_len)
            self.emit(
                text,
                {"cmd": "open", "module": disp,
                 "submodule": render_ideal(k, names), "open": opn,
                 "length": ordinal_json(sub_len), "display": self.disp(sub_len)},
            )
        elif cmd.kind == "iopen":
            k = self.resolve_witness(m, cmd.refs[1])
            assert cmd.index is not None
            opn = topology.is_i_open(m, k, cmd.index)
            sub_len = invariants.length(m.submodule(k))
            text = "i-open" if opn else "not i-open (len = %s)" % self.disp(sub_len)
            self.emit(
                text,
                {"cmd": "iopen", "module": disp, "i": cmd.index,
                 "submodule": render_ideal(k, names), "iopen": opn,
                 "length": ordinal_json(sub_len), "display": self.disp(sub_len)},
            )
        elif cmd.kind == "closure":
            k = self.resolve_witness(m, cmd.refs[1])
            cl = topology.closure(m, k)
            self.emit(
                render_ideal(cl, names),
                {"cmd": "closure", "module": disp,
                 "submodule": render_ideal(k, names),
                 "ideal": [render_monomial(g, names) for g in cl.gens]},
            )
        elif cmd.kind == "homvanishes":
            other = self.resolve(cmd.refs[1])
            try:
                res = topology.hom_vanishes(m, other)
            except ZeroModuleError as exc:
                raise SemanticError(str(exc)) from exc
            self.emit(
                "true" if res else "false",
                {"cmd": "homvanishes", "source": disp,
                 "target": cmd.refs[1].display(), "vanishes": res},
            )
        elif cmd.kind == "submodlen":
            assert cmd.ordinal is not None
            try:
                k = invariants.construct_submodule_of_length(m, cmd.ordinal)
            except InvalidSubquotientError as exc:
                raise SemanticError(str(exc)) from exc
            self.emit(
                render_ideal(k, names),
                {"cmd": "submodlen", "module": disp,
                 "target": ordinal_json(cmd.ordinal),
                 "ideal": [render_monomial(g, names) for g in k.gens]},
            )
        else:  # pragma: no cover - parser rejects unknown commands
            raise SemanticError("unknown command %r" % cmd.kind)


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
    except (ResourceCapError, SubmoduleSearchError) as exc:
        err.write("resource cap: %s\n" % exc)
        return 3
    except OrdlenError as exc:
        err.write("semantic error: %s\n" % exc)
        return 2
    return 0


def _eval_script(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    cmd = args.cmd
    if _COMMANDS[cmd] == 2 and not args.ideal2:
        parser.error("--cmd %s needs --ideal2" % cmd)
    if cmd == "iopen" and args.index is None:
        parser.error("--cmd iopen needs --index")
    if cmd == "submodlen" and not args.ordinal:
        parser.error("--cmd submodlen needs --ordinal")
    lines = ["ring %s" % args.ring, "I = %s" % args.ideal]
    if args.ideal2:
        lines.append("K = %s" % args.ideal2)
    if cmd == "iopen":
        lines.append("iopen %d I K" % args.index)
    elif cmd == "submodlen":
        lines.append("submodlen I %s" % args.ordinal)
    else:
        lines.append("%s I%s" % (cmd, " K" * (_COMMANDS[cmd] - 1)))
    return "\n".join(lines) + "\n"


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
        except OSError as exc:
            sys.stderr.write("cannot read script: %s\n" % exc)
            return 2
    else:
        text = _eval_script(args, p_eval)
    return run_text(text, as_json=args.json, ascii_only=args.ascii, max_vars=args.max_vars)


if __name__ == "__main__":
    sys.exit(main())
