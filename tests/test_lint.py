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


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom heapq import heappop, heappush\n"
    source += "__all__ = ['heappush']\n\ndef f(x: os.PathLike) -> None:\n    pass\n"
    assert unused_imports(source) == [(3, "heappop")]
