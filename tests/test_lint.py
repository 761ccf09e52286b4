import ast
from pathlib import Path

import ordlen

PACKAGE = Path(ordlen.__file__).parent


def unused_imports(source):
    """The names a module imports and never reads, nor re-exports in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def unbounded_caches(source):
    """The lines that use functools.cache or an lru_cache with maxsize None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if getattr(node.value, "id", None) == "functools":
                found.append((node.lineno, "cache"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            size = [*node.args, *(k.value for k in node.keywords if k.arg == "maxsize")][:1]
            if name == "lru_cache" and size and getattr(size[0], "value", 0) is None:
                found.append((node.lineno, "lru_cache"))
    return sorted(found)


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom heapq import heappop, heappush\n"
    source += "__all__ = ['heappush']\n\ndef f(x: os.PathLike) -> None:\n    pass\n"
    assert unused_imports(source) == [(3, "heappop")]


def test_no_unbounded_caches_in_the_package():
    found = {path.name: unbounded_caches(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unbounded_caches_are_found():
    source = "import functools\nfrom functools import cache, lru_cache\n\n@lru_cache(maxsize=None)\n"
    source += "def f(x):\n    return x\n\n@functools.lru_cache(None)\ndef g(x):\n    return x\n\n"
    source += "@functools.cache\ndef h(x):\n    return x\n\n"
    source += "@lru_cache(maxsize=64)\ndef k(x):\n    return x\n\n@lru_cache\ndef m(x):\n    return x\n"
    assert unbounded_caches(source) == [(2, "cache"), (4, "lru_cache"), (8, "lru_cache"), (12, "cache")]


def divisibility_scans(source):
    """The calls map(le, ...) of a module, each with its line and the function it sits in."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "map" and child.args:
                if "le" in (getattr(child.args[0], "id", None), getattr(child.args[0], "attr", None)):
                    found.append((child.lineno, where))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), None)
    return sorted(found)


def test_one_divisibility_kernel_in_the_package():
    # every divisibility test of the engine goes through monomial._divides, so a
    # change of the exponent representation has one scan to change
    found = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
             for _, where in divisibility_scans(path.read_text())]
    assert found == [("monomial.py", "_divides")]


def test_divisibility_scans_are_found():
    source = "import operator\nfrom operator import le\n\nok = all(map(le, (1,), (2,)))\n\n"
    source += "class A:\n    def f(self, g, m):\n        return any(all(map(le, h, m)) for h in g)\n\n"
    source += "def g(a, b):\n    return all(map(operator.le, a, b)) and all(map(max, a, b))\n"
    assert divisibility_scans(source) == [(4, None), (8, "f"), (11, "g")]
