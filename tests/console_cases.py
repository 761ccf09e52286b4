"""The console contract of the `ordlen` command, byte for byte.

Each row of CASES is one call: its arguments, the text of `script.ord` (None
when the call reads no script), the exit code, stdout and stderr.  `run_case`
runs a row through a given command in a scratch directory.

tests/test_cli.py runs every row through `python -m ordlen.cli`, with the
package imported from src/.  Run as a script, this file runs the same rows
through the `ordlen` console script on PATH, and imports nothing from ordlen,
so it checks the installed package:

    python tests/console_cases.py

It prints one line per row and exits 1 if any row differs.
"""

import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

Case = namedtuple("Case", "name args script code stdout stderr")

# the cycle, primes, filtration and closure of R/I
SCRIPT = "ring x,y,z\nI = x^2, x*y\nK = x\ncycle I\nass I\nfiltration I\nclosure I K\n"
# the submodule search and i-openness on the same module
SEARCH = "ring x,y,z\nI = x^2, x*y\nK = x\nlen I\nsubmodlen I w^2 + w\nsubmodlen I w\niopen 1 I K\n"
# one deep search: 7,999 and 4,000 steps, each of which scans K alone
DEEP = "ring x,y\nI = x^4000, y^2\nlen I\nsubmodlen I 7999\nsubmodlen I 4000\n"
# pure powers with a free variable: one box of 3 x 4 standard pairs
PURE = "ring x,y,z\nI = x^3, y^4\nlen I\ncycle I\nsubmodlen I 5w\n"
# a subquotient whose top slice in z is the unit ideal (z^3 in I)
SUB = "ring x,y,z\nI = x^2*z, y*z^2, z^3\nJ = x, z\nlen J/I\ncycle J/I\nass J/I\nfiltration J/I\n"


def run(*options: str) -> tuple[str, ...]:
    return ("run", *options, "script.ord")


def eval_len(ring: str) -> tuple[str, ...]:
    return ("eval", "--ring", ring, "--ideal", "x^2, x*y", "--cmd", "len")


CASES = [
    Case("eval", eval_len("x,y"), None, 0, "len R/I = ω + 1\n", ""),
    Case("eval_in_three_variables", eval_len("x,y,z"), None, 0, "len R/I = ω^2 + ω\n", ""),
    Case("script_ascii", run("--ascii"), SCRIPT, 0, """\
[(x)] + [(x,y)]
(x), (x,y)
(x^2, x*y) <= (x) <= (1)
(x)
""", ""),
    Case("script_json", run("--json"), SCRIPT, 0, """\
{"cmd": "cycle", "module": "R/I", "cycle": [{"vars": ["x"], "mult": 1}, {"vars": ["x", "y"], "mult": 1}]}
{"cmd": "ass", "module": "R/I", "primes": [["x"], ["x", "y"]]}
{"cmd": "filtration", "module": "R/I", "ideals": [["x^2", "x*y"], ["x"], ["1"]]}
{"cmd": "closure", "module": "R/I", "submodule": "(x)", "ideal": ["x"]}
""", ""),
    Case("search_ascii", run("--ascii"), SEARCH, 0, """\
len R/I = w^2 + w
(x, y)
(x)
not i-open (len = w)
""", ""),
    Case("search_json", run("--json"), SEARCH, 0, """\
{"cmd": "len", "module": "R/I", "length": {"2": 1, "1": 1}, "display": "ω^2 + ω"}
{"cmd": "submodlen", "module": "R/I", "target": {"2": 1, "1": 1}, "ideal": ["x", "y"]}
{"cmd": "submodlen", "module": "R/I", "target": {"1": 1}, "ideal": ["x"]}
{"cmd": "iopen", "module": "R/I", "i": 1, "submodule": "(x)", "iopen": false, "length": {"1": 1}, "display": "ω"}
""", ""),
    Case("deep_ascii", run("--ascii"), DEEP, 0, """\
len R/I = 8000
(x, y)
(y^2, x^2000)
""", ""),
    Case("pure_ascii", run("--ascii"), PURE, 0, """\
len R/I = 12w
12[(x,y)]
(x^2, x*y^3, y^4)
""", ""),
    Case("pure_json", run("--json"), PURE, 0, """\
{"cmd": "len", "module": "R/I", "length": {"1": 12}, "display": "12ω"}
{"cmd": "cycle", "module": "R/I", "cycle": [{"vars": ["x", "y"], "mult": 12}]}
{"cmd": "submodlen", "module": "R/I", "target": {"1": 5}, "ideal": ["x^2", "x*y^3", "y^4"]}
""", ""),
    Case("sub_ascii", run("--ascii"), SUB, 0, """\
len J/I = w^2 + 2w + 2
[(z)] + 2[(x,z)] + 2[(x,y,z)]
(z), (x,z), (x,y,z)
(z^2, x^2*z) <= (z) <= (x, z)
""", ""),
    Case("sub_json", run("--json"), SUB, 0, """\
{"cmd": "len", "module": "J/I", "length": {"2": 1, "1": 2, "0": 2}, "display": "ω^2 + 2ω + 2"}
{"cmd": "cycle", "module": "J/I", "cycle": [{"vars": ["z"], "mult": 1}, {"vars": ["x", "z"], "mult": 2}, {"vars": ["x", "y", "z"], "mult": 2}]}
{"cmd": "ass", "module": "J/I", "primes": [["z"], ["x", "z"], ["x", "y", "z"]]}
{"cmd": "filtration", "module": "J/I", "ideals": [["z^2", "x^2*z"], ["z"], ["x", "z"]]}
""", ""),
    Case("parse_error", run(), "ring x,y\nI = x^\nlen I\n", 1, "",
         "parse error at line 3, column 1: expected integer (found 'len')\n"),
    Case("undefined_ideal", run(), "ring x\nI = x\nlen J/I\n", 2, "",
         "semantic error: undefined ideal 'J' at line 3, column 5\n"),
    Case("undefined_ideal_after_an_answer", run(), "ring x\nI = x^2\nlen I\nlen J/I\n", 2, "len R/I = 2\n",
         "semantic error: undefined ideal 'J' at line 4, column 5\n"),
    # a UTF-8 byte-order mark at the start of the file is not a character of the script
    Case("byte_order_mark", run(), "\ufeffring x,y\nI = x^2, x*y\nlen I\n", 0, "len R/I = ω + 1\n", ""),
]


def run_case(case: Case, command: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes]:
    """Run one row through command in a scratch directory: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as scratch:
        if case.script is not None:
            Path(scratch, "script.ord").write_bytes(case.script.encode("utf-8"))
        done = subprocess.run([*command, *case.args], cwd=scratch, env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def expected(case: Case) -> tuple[int, bytes, bytes]:
    return case.code, case.stdout.encode("utf-8"), case.stderr.encode("utf-8")


def main() -> int:
    # stdout is UTF-8 whatever the caller's locale, as in the tests
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    failed = 0
    for case in CASES:
        got, want = run_case(case, ["ordlen"], env), expected(case)
        print("%s %s" % ("ok  " if got == want else "FAIL", case.name))
        if got != want:
            print("  want %r\n  got  %r" % (want, got))
            failed += 1
    print("%d of %d rows differ" % (failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
