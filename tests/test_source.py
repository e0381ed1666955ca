import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fanscheme"


def _unused_imports(tree):
    """Names bound by module-level imports that nothing reads; names listed
    in __all__ count as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_package_modules_have_no_unused_imports():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    unused = {
        p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
        for p in paths
    }
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_finder():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from math import gcd, lcm as l\n"
        "__all__ = ['gcd']\n"
        "print(os.sep)\n"
    )
    assert _unused_imports(tree) == [(3, "sys"), (4, "l")]
