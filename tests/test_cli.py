import io
import json

import pytest

from ordlen import cli
from ordlen.errors import SubmoduleSearchError

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

    def test_every_line_is_json(self):
        code, out, _ = run(EXAMPLE, as_json=True)
        assert code == 0
        for line in out.splitlines():
            json.loads(line)


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


class TestRoundTrip:
    CASES = [
        EXAMPLE,
        "ring x\nI = 0\nJ = 1\nlen J/I\n",
        "ring a,b\nI = a^3*b, b^2\niopen -1 I I\nsubmodlen I 2w + 1\n",
        "ring x,y\nI = x*y\nclosure I I\nhomvanishes I I\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_render_parse_roundtrip(self, text):
        script = cli.parse(text)
        rendered = cli.render_script(script)
        assert cli.script_shape(cli.parse(rendered)) == cli.script_shape(script)

    @pytest.mark.parametrize("text", CASES)
    def test_render_is_idempotent(self, text):
        once = cli.render_script(cli.parse(text))
        assert cli.render_script(cli.parse(once)) == once


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

    @pytest.mark.parametrize(
        "extra",
        [
            ["--cmd", "frobnicate"],
            ["--cmd", "open"],
            ["--cmd", "iopen", "--ideal2", "x"],
            ["--cmd", "homvanishes"],
            ["--cmd", "submodlen"],
        ],
    )
    def test_eval_usage_errors(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--ring", "x,y", "--ideal", "x^2"] + extra)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

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
