import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordlen import cli
from ordlen.errors import SubmoduleSearchError
from ordlen.monomial import SubquotientModule

EXAMPLE = """\
ring x,y,z
I = x^2, x*y
K = x
len I
ass I
cycle I
open I K
filtration I
"""


# an integer literal longer than int() converts by default
LONG = "1" * 5000


def run(text, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_text(text, out=out, err=err, **kw)
    return code, out.getvalue(), err.getvalue()


class TestGoldenText:
    def test_example_script(self):
        code, out, err = run(EXAMPLE)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "len R/I = ω^2 + ω",
            "(x), (x,y)",
            "[(x)] + [(x,y)]",
            "not open (len = ω)",
            "(x^2, x*y) ⊆ (x) ⊆ (1)",
        ]

    def test_ascii(self):
        code, out, _ = run("ring x,y,z\nI = x^2, x*y\nlen I\nfiltration I\n", ascii_only=True)
        assert code == 0
        assert out.splitlines()[0] == "len R/I = w^2 + w"
        assert out.splitlines()[1] == "(x^2, x*y) <= (x) <= (1)"

    def test_subquotient_and_iopen(self):
        script = "ring x,y,z\nI = x^2, x*y\nK = x\nlen K/I\niopen 1 I K\n"
        code, out, _ = run(script)
        assert code == 0
        assert out.splitlines() == ["len K/I = ω", "not i-open (len = ω)"]

    def test_closure_and_submodlen(self):
        script = "ring x,y\nI = x^2, x*y\nclosure I I\nsubmodlen I 1\n"
        code, out, _ = run(script)
        assert code == 0
        assert out.splitlines()[0] == "(x)"

    def test_submodlen_omega(self):
        code, out, _ = run("ring x,y,z\nI = x^2, x*y\nsubmodlen I w\n")
        assert code == 0 and out.strip() == "(x)"

    def test_homvanishes(self):
        script = "ring x,y\nM = x, y\nN = x\nhomvanishes M N\nhomvanishes N M\n"
        code, out, _ = run(script)
        assert code == 0
        assert out.splitlines() == ["true", "false"]

    def test_zero_ideal_and_unit_literal(self):
        code, out, _ = run("ring x,y\nZ = 0\nU = 1\nlen Z\nlen U/Z\n")
        assert code == 0
        assert out.splitlines() == ["len R/Z = ω^2", "len U/Z = ω^2"]

    def test_comments_and_whitespace_insensitivity(self):
        noisy = "# header\nring   x ,y, z\nI=x^2,x * y  # trailing\nlen I\n"
        code, out, _ = run(noisy)
        assert code == 0 and out.strip() == "len R/I = ω^2 + ω"


class TestGoldenJson:
    def test_len_object(self):
        code, out, _ = run("ring x,y,z\nI = x^2, x*y\nlen I\n", as_json=True)
        assert code == 0
        assert json.loads(out) == {
            "cmd": "len",
            "module": "R/I",
            "length": {"2": 1, "1": 1},
            "display": "ω^2 + ω",
        }

    def test_ass_and_cycle_objects(self):
        code, out, _ = run("ring x,y,z\nI = x^2, x*y\nass I\ncycle I\n", as_json=True)
        objs = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert objs[0]["primes"] == [["x"], ["x", "y"]]
        assert objs[1]["cycle"] == [
            {"vars": ["x"], "mult": 1},
            {"vars": ["x", "y"], "mult": 1},
        ]

    def test_open_object(self):
        code, out, _ = run("ring x,y,z\nI = x^2, x*y\nK = x\nopen I K\n", as_json=True)
        obj = json.loads(out)
        assert obj["open"] is False and obj["length"] == {"1": 1}

    # one row per command: the raw text line and the raw --json line, so key
    # order and every byte of the output are pinned
    PRELUDE = "ring x,y,z\nI = x^2, x*y\nK = x\n"
    EVERY_COMMAND = [
        ("len K/I", "len K/I = ω",
         '{"cmd": "len", "module": "K/I", "length": {"1": 1}, "display": "ω"}'),
        ("cycle I", "[(x)] + [(x,y)]",
         '{"cmd": "cycle", "module": "R/I", "cycle": [{"vars": ["x"], "mult": 1}, '
         '{"vars": ["x", "y"], "mult": 1}]}'),
        ("cycle I/I", "0", '{"cmd": "cycle", "module": "I/I", "cycle": []}'),
        ("ass I", "(x), (x,y)",
         '{"cmd": "ass", "module": "R/I", "primes": [["x"], ["x", "y"]]}'),
        ("filtration I", "(x^2, x*y) ⊆ (x) ⊆ (1)",
         '{"cmd": "filtration", "module": "R/I", "ideals": [["x^2", "x*y"], ["x"], ["1"]]}'),
        ("open I K", "not open (len = ω)",
         '{"cmd": "open", "module": "R/I", "submodule": "(x)", "open": false, '
         '"length": {"1": 1}, "display": "ω"}'),
        ("iopen 1 I K", "not i-open (len = ω)",
         '{"cmd": "iopen", "module": "R/I", "i": 1, "submodule": "(x)", "iopen": false, '
         '"length": {"1": 1}, "display": "ω"}'),
        ("closure I K", "(x)",
         '{"cmd": "closure", "module": "R/I", "submodule": "(x)", "ideal": ["x"]}'),
        ("homvanishes K/I I", "false",
         '{"cmd": "homvanishes", "source": "K/I", "target": "R/I", "vanishes": false}'),
        ("submodlen I w^2 + w", "(x, y)",
         '{"cmd": "submodlen", "module": "R/I", "target": {"2": 1, "1": 1}, '
         '"ideal": ["x", "y"]}'),
    ]

    @pytest.mark.parametrize("command,text,json_line", EVERY_COMMAND)
    def test_every_command_raw_output(self, command, text, json_line):
        assert run(self.PRELUDE + command + "\n") == (0, text + "\n", "")
        assert run(self.PRELUDE + command + "\n", as_json=True) == (0, json_line + "\n", "")

    # the filtration and closure of a J/I with J != (1) and of R/0 in the same
    # two forms; these pin the generator order of each ideal through rendering
    J_OVER_I = "ring x,y,z\nI = x^2*y, x*y^2, x*z^3\nJ = x*y, z^2\n"
    ZERO_IDEAL = "ring x,y\nI = 0\n"
    FILTRATIONS = [
        (J_OVER_I + "filtration J/I", "(x*y, x*z^3) ⊆ (x*y, x*z^2) ⊆ (x*y, z^2)",
         '{"cmd": "filtration", "module": "J/I", "ideals": '
         '[["x*y", "x*z^3"], ["x*y", "x*z^2"], ["x*y", "z^2"]]}'),
        (J_OVER_I + "closure J/I I", "(x*y, x*z^3)",
         '{"cmd": "closure", "module": "J/I", "submodule": "(x^2*y, x*y^2, x*z^3)", '
         '"ideal": ["x*y", "x*z^3"]}'),
        (ZERO_IDEAL + "filtration I", "(0) ⊆ (0) ⊆ (1)",
         '{"cmd": "filtration", "module": "R/I", "ideals": [[], [], ["1"]]}'),
        (ZERO_IDEAL + "closure I I", "(0)",
         '{"cmd": "closure", "module": "R/I", "submodule": "(0)", "ideal": []}'),
    ]

    @pytest.mark.parametrize("script,text,json_line", FILTRATIONS)
    def test_filtration_and_closure_raw_output(self, script, text, json_line):
        assert run(script + "\n") == (0, text + "\n", "")
        assert run(script + "\n", as_json=True) == (0, json_line + "\n", "")

    def test_every_line_is_json(self):
        code, out, _ = run(EXAMPLE, as_json=True)
        assert code == 0
        for line in out.splitlines():
            json.loads(line)


class TestGoldenErrors:
    # the exact stderr, so that the line and column of each message are pinned
    # (Name positions are left out of syntax-tree equality)
    CASES = [
        ("ring x,y\nI = x ~ y\n", 1,
         "parse error at line 2, column 7: unexpected character '~'"),
        ("ring é,y\nI = é^2 ½\n", 1,
         "parse error at line 2, column 9: unexpected character '½'"),
        ("ring x,y\nI = x^", 1,
         "parse error at line 2, column 7: expected integer (found 'end of input')"),
        ("ring x\nI = x\n= x\n", 1,
         "parse error at line 3, column 1: expected a statement (found '=')"),
        ("ring x,y\nI = x\nlen I I\n", 1,
         "parse error at line 3, column 7: expected 'ring', a command, or an ideal binding"
         " (found 'I')"),
        # end of input after a trailing comment is reported at the '#'
        ("ring x\nI = x\nlen # a ref is missing", 1,
         "parse error at line 3, column 5: expected ideal name (found 'end of input')"),
        pytest.param("ring x\nI = x\nlen I\nsubmodlen I %sw\n" % LONG, 1,
                     "parse error at line 4, column 13: integer literal of 5000 digits is too long",
                     id="long-literal"),
        ("ring x\nI = x\nsubmodlen I x\n", 1,
         "parse error at line 3, column 13: expected an ordinal term (found 'x')"),
        ("ring x,y\nI = x*q^2\n", 2,
         "semantic error: undefined variable 'q' at line 2, column 7"),
        ("ring x,y\nI = x\nlen J/I\n", 2,
         "semantic error: undefined ideal 'J' at line 3, column 5"),
        ("ring x,y\nI = x\nlen I/J\n", 2,
         "semantic error: undefined ideal 'J' at line 3, column 7"),
        ("ring x,y\nI = x\nJ = x\nfiltration J/I\n", 2,
         "semantic error: dimension filtration of the zero module"),
    ]

    @pytest.mark.parametrize("text,code,message", CASES)
    def test_stderr(self, text, code, message):
        assert run(text) == (code, "", message + "\n")


class TestRebinding:
    # a binding replaces the ideal under its name for every later command
    def test_len_after_rebinding(self):
        text = "ring x,y\nI = x\nlen I\nI = x^2\nlen I\n"
        assert run(text) == (0, "len R/I = ω\nlen R/I = 2ω\n", "")

    def test_witness_after_rebinding(self):
        text = "ring x,y\nI = x^2\nK = x\nopen I K\nK = x^2\nopen I K\n"
        assert run(text) == (0, "not open (len = ω)\nnot open (len = 0)\n", "")

    def test_witness_rebound_outside_the_module(self):
        text = "ring x,y\nI = x^2*y\nJ = x\nK = x*y\nopen J/I K\nK = y\nopen J/I K\n"
        assert run(text) == (
            2, "not open (len = ω)\n", "semantic error: witness ideal not between I and J\n"
        )

    def test_upper_rebound_below_the_lower(self):
        text = "ring x,y\nI = x^2\nJ = x\nlen J/I\nJ = y\nlen J/I\n"
        assert run(text) == (
            2, "len J/I = ω\n", "semantic error: lower ideal not contained in upper ideal\n"
        )


class TestWitnessCheckedOnce:
    def test_one_submodule_per_witness_command(self, monkeypatch):
        calls = []
        submodule = SubquotientModule.submodule

        def counted(self, k):
            calls.append(k)
            return submodule(self, k)

        monkeypatch.setattr(SubquotientModule, "submodule", counted)
        text = "ring x,y\nI = x^2\nK = x\nopen I K\niopen 0 I K\nclosure I K\n"
        assert run(text) == (0, "not open (len = ω)\nnot i-open (len = ω)\n(x)\n", "")
        assert len(calls) == 3


class TestExitCodes:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty script
            "ring x,y\nI = x^\nlen I\n",  # dangling exponent
            "ring x,y\nI = 2\n",  # bad integer literal in an ideal
            "ring x,y\nI = x,\n",  # trailing comma
            "len\n",  # command without a ref
            "frobnicate I\n",  # unknown statement
            "ring x,y\nI = x ~ y\n",  # illegal character
            "ring x,y\nI = x^²\nlen I\n",  # digits int() rejects are not integers
            "ring x,y\nI = x\nK = 1\niopen ² I K\n",
            "ring x,y\nI = x\nsubmodlen I ³w\n",
            # more digits than int() converts
            pytest.param("ring x\nI = x^%s\nlen I\n" % LONG, id="long-exponent"),
            pytest.param("ring x\nI = x\niopen %s I I\n" % LONG, id="long-index"),
            pytest.param("ring x\nI = x\nsubmodlen I %sw\n" % LONG, id="long-ordinal"),
        ],
    )
    def test_parse_errors(self, text):
        code, out, err = run(text)
        assert code == 1 and out == "" and "parse error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "len I\n",  # no ring declared
            "ring x,y\nlen I\n",  # undefined ideal
            "ring x,y\nI = q\nlen I\n",  # undefined variable
            "ring x,x\nI = x\nlen I\n",  # duplicate ring variable
            "ring x\nring y\n",  # second ring declaration
            "ring x,y\nI = x^2\nK = y\nopen I K\n",  # witness not above I
            "ring x,y\nI = x\nsubmodlen I w^2\n",  # target too strong
            "ring x,y\nI = x\nJ = 1\nhomvanishes J/J I\n",  # zero module
        ],
    )
    def test_semantic_errors(self, text):
        code, out, err = run(text)
        assert code == 2 and "semantic error" in err

    def test_resource_cap_exit_code(self, monkeypatch):
        def boom(m, nu):
            raise SubmoduleSearchError("synthetic")

        monkeypatch.setattr(cli.invariants, "construct_submodule_of_length", boom)
        code, _, err = run("ring x,y\nI = x\nsubmodlen I w\n")
        assert code == 3 and "resource cap" in err


# Scripts drawn from the grammar in the cli docstring, over at most three
# variables and with every integer at most 3, so that no run is large.  A few
# scripts have no ring, a repeated or undefined variable, or an undefined
# ideal J, so that the error paths are reachable too.
_SMALL = st.integers(0, 3)
_RARELY = st.sampled_from([False] * 7 + [True])
_REF = st.sampled_from(["I", "K", "K/I", "I/K", "K/K", "J"])
_TERM = _SMALL.map(str) | st.builds("{}w^{}".format, _SMALL, _SMALL)
_ORDINAL = st.lists(_TERM, min_size=1, max_size=3).map(" + ".join)
_COMMAND = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["len", "cycle", "ass", "filtration"]), _REF),
    st.builds("{} {} {}".format, st.sampled_from(["open", "closure", "homvanishes"]), _REF, _REF),
    st.builds("iopen {} {} {}".format, st.integers(-1, 3), _REF, _REF),
    st.builds("submodlen {} {}".format, _REF, _ORDINAL),
)


@st.composite
def _scripts(draw):
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    variables = st.sampled_from(names + ["q"] if draw(_RARELY) else names)
    factor = st.builds("{}^{}".format, variables, _SMALL)
    mono = st.just("1") | st.lists(factor, min_size=1, max_size=3).map("*".join)
    ideal = st.just("0") | st.lists(mono, min_size=1, max_size=3).map(", ".join)
    repeated = names[:1] if draw(_RARELY) else []
    lines = [] if draw(_RARELY) else ["ring " + ",".join(names + repeated)]
    lines += ["%s = %s" % (name, draw(ideal)) for name in draw(st.permutations("IK"))]
    lines += draw(st.lists(_COMMAND, min_size=1, max_size=3))
    return "\n".join(lines) + "\n"


_TOKENS = ["ring", "x", "y", "I", "K", "=", ",", "^", "*", "/", "+", "-", "0", "1", "2",
           "w", "len", "iopen", "submodlen", "\n", "#", "²", "\xff"]


class TestExitCodeProperties:
    @given(st.text(max_size=30) | st.lists(st.sampled_from(_TOKENS), max_size=20).map(" ".join))
    @example("ring x\nI = x^²\n")
    @example("ring x\nI = x\xff\n")
    def test_parse_returns_a_script_or_raises_parse_error(self, text):
        try:
            assert isinstance(cli.parse(text), cli.Script)
        except cli.ParseError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(_scripts())
    def test_grammar_scripts_end_with_a_documented_exit_code(self, text):
        code, _, err = run(text)
        assert code in (0, 1, 2, 3)
        assert (err == "") == (code == 0)


def reference_tokenize(text):
    """A character-at-a-time lexer for the script language: the reference
    that cli.tokenize must match token for token, error for error."""
    tokens = []
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
        elif c in ",=^*/+-":
            tokens.append(("SYM", c, line, col))
            i, col = i + 1, col + 1
        elif "0" <= c <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise cli.ParseError("unexpected character %r" % c, line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


# Unicode letters, digits and numerics that are not ASCII digits, Unicode
# whitespace that is not a line break, and comments with and without a newline
_LEXEMES = ["ring", "x", "I", "_a", "x1", "w", "0", "12", "007", ",", "=", "^", "*", "/",
            "+", "-", "~", "€", "#", "# note", " ", "\t", "\n", "\r\n", "\x85", "\x0b",
            "\u2003", "\u2028", "é", "٣", "²", "½", "Ⅷ", "\xff"]


class TestLexer:
    @given(st.text(max_size=40) | st.lists(st.sampled_from(_LEXEMES), max_size=25).map("".join))
    @example("x²½Ⅷ ٣")
    @example("²x")
    @example("I = x # no newline")
    @example("I = x\r\n\x85\x0by")
    def test_tokenize_is_the_reference(self, text):
        try:
            want = reference_tokenize(text)
        except cli.ParseError as exc:
            with pytest.raises(cli.ParseError) as got:
                cli.tokenize(text)
            assert str(got.value) == str(exc)
        else:
            assert cli.tokenize(text) == want


def render_script(script):
    """Inverse of parse up to formatting: reparsing the output gives an
    equal Script."""

    def mono_text(mono):
        if not mono:
            return "1"
        return "*".join(n.text if e == 1 else "%s^%d" % (n.text, e) for n, e in mono)

    lines = []
    for stmt in script.statements:
        if isinstance(stmt, cli.RingDecl):
            lines.append("ring %s" % ",".join(n.text for n in stmt.names))
        elif isinstance(stmt, cli.Binding):
            monos = stmt.ideal.monomials
            body = ", ".join(mono_text(m) for m in monos) if monos else "0"
            lines.append("%s = %s" % (stmt.name.text, body))
        else:
            words, refs = [stmt.kind], iter(stmt.refs)
            for arg in cli._COMMANDS[stmt.kind]:
                if arg == "r":
                    words.append(next(refs).display().removeprefix("R/"))
                elif arg == "i":
                    words.append(str(stmt.index))
                else:
                    words.append(stmt.ordinal.display(ascii_only=True))
            lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    CASES = [
        EXAMPLE,
        "ring x\nI = 0\nJ = 1\nlen J/I\n",
        "ring a,b\nI = a^3*b, b^2\niopen -1 I I\nsubmodlen I 2w + 1\n",
        "ring x,y\nI = x*y\nclosure I I\nhomvanishes I I\n",
        "# positions move\nring   x ,y\nI=x^2,x * y  # trailing\nopen  I  I\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_render_parse_roundtrip(self, text):
        script = cli.parse(text)
        rendered = render_script(script)
        assert cli.parse(rendered) == script

    @pytest.mark.parametrize("text", CASES)
    def test_render_is_idempotent(self, text):
        once = render_script(cli.parse(text))
        assert render_script(cli.parse(once)) == once

    def test_copies_keep_name_positions(self, clone):
        script = cli.parse(self.CASES[4])
        back = clone(script)
        assert back == script
        for names in (script.statements[0].names, back.statements[0].names):
            assert [(n.text, n.line, n.col) for n in names] == [("x", 2, 8), ("y", 2, 11)]


class TestOrdinalParsing:
    @pytest.mark.parametrize(
        "src,coeffs",
        [
            ("w^2 + w", {2: 1, 1: 1}),
            ("3w + 2", {1: 3, 0: 2}),
            ("0", {}),
            ("w^3", {3: 1}),
            ("2w^2 + 2w^2", {2: 4}),
        ],
    )
    def test_terms(self, src, coeffs):
        script = cli.parse("ring x\nI = x\nsubmodlen I %s\n" % src)
        cmd = script.statements[-1]
        assert dict(cmd.ordinal.terms) == coeffs


class TestMain:
    def test_eval_len(self, capsys):
        code = cli.main(["eval", "--ring", "x,y,z", "--ideal", "x^2, x*y", "--cmd", "len"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "len R/I = ω^2 + ω"

    def test_eval_json_ascii(self, capsys):
        code = cli.main(
            ["eval", "--json", "--ascii", "--ring", "x,y", "--ideal", "x^2, x*y", "--cmd", "len"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["display"] == "w + 1"

    def test_eval_iopen(self, capsys):
        code = cli.main(
            ["eval", "--ring", "x,y,z", "--ideal", "x^2, x*y", "--ideal2", "x",
             "--cmd", "iopen", "--index", "1"]
        )
        assert code == 0
        assert "not i-open" in capsys.readouterr().out

    def test_run_script_file(self, tmp_path, capsys):
        path = tmp_path / "script.ord"
        path.write_text(EXAMPLE, encoding="utf-8")
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "len R/I = ω^2 + ω"

    def test_run_missing_file(self, capsys):
        assert cli.main(["run", "/nonexistent/script.ord"]) == 2

    def test_run_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "script.ord"
        path.write_bytes(b"ring x\nI = x\xff\n")
        assert cli.main(["run", str(path)]) == 2
        assert "cannot read script" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--cmd", "frobnicate"],
            ["--cmd", "open"],
            ["--cmd", "iopen", "--ideal2", "x"],
            ["--cmd", "homvanishes"],
            ["--cmd", "submodlen"],
            # an operand that carries a statement of its own runs nothing
            ["--ideal", "x len I", "--cmd", "len"],
            ["--ideal", "x^2, x*y", "--ideal2", "x cycle I", "--cmd", "open"],
            ["--ring", "x,y I = x", "--cmd", "len"],
            ["--cmd", "submodlen", "--ordinal", "w len I"],
        ],
    )
    def test_eval_usage_errors(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--ring", "x,y", "--ideal", "x^2"] + extra)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "usage:" in err and out == ""

    def test_eval_malformed_operand_is_a_parse_error(self, capsys):
        code = cli.main(["eval", "--ring", "x,y", "--ideal", "x^2,", "--cmd", "len"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("parse error at line 3, column 5:")

    def test_variable_cap_is_checked_at_the_ring(self):
        ring = "ring %s\n" % ",".join("x%d" % i for i in range(17))
        code, out, err = run(ring)
        assert code == 2 and out == "" and "17 variables exceeds the cap of 16" in err
        assert run(ring + "I = x0\nlen I\n", max_vars=17)[:2] == (0, "len R/I = ω^16\n")

    def test_max_vars_cap(self, capsys):
        code = cli.main(
            ["eval", "--max-vars", "1", "--ring", "x,y", "--ideal", "x", "--cmd", "len"]
        )
        assert code == 2


class TestProcess:
    """`python -m ordlen.cli` started as a process of its own."""

    def python(self, *args):
        # pyproject's pythonpath setting reaches only the pytest process
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8")
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, encoding="utf-8", env=env, timeout=60,
        )

    def cli(self, *args):
        return self.python("-m", "ordlen.cli", *args)

    def test_start_up_loads_neither_dataclasses_nor_inspect(self):
        probe = "import sys, ordlen.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
        done = self.python("-c", probe)
        assert (done.returncode, done.stdout, done.stderr) == (0, "set()\n", "")

    def test_start_up_without_site_loads_no_typing(self):
        # -S: a .pth hook in site-packages (certifi's, for one) may import typing first
        done = self.python("-S", "-c", "import sys, ordlen.cli; print('typing' in sys.modules)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_eval_exits_0(self):
        done = self.cli("eval", "--ring", "x,y,z", "--ideal", "x^2, x*y", "--cmd", "len")
        assert (done.returncode, done.stdout, done.stderr) == (0, "len R/I = ω^2 + ω\n", "")

    def test_run_of_a_parse_error_exits_1(self, tmp_path):
        path = tmp_path / "script.ord"
        path.write_text("ring x,y\nI = x^\nlen I\n", encoding="utf-8")
        done = self.cli("run", str(path))
        message = "parse error at line 3, column 1: expected integer (found 'len')\n"
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
