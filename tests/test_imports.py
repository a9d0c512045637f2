"""Every module-level import of the package and its tests is read somewhere,
and the package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "wsat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports (except __future__)
    that no ast.Name in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom math import comb as c, gcd\n"
                          "print(os, gcd)\n") == ["c"]


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): names for path in MODULES
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def third_party_imports(source: str) -> list[str]:
    """Top-level module names of the absolute imports anywhere in the source,
    at module level or inside functions, that are not in the standard
    library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_scan_finds_a_third_party_import():
    assert third_party_imports("import os.path\nfrom . import x\n"
                               "def f():\n    import numpy.linalg\n"
                               "    from yaml import safe_load\n") == \
        ["numpy.linalg", "yaml"]


def test_runtime_imports_only_the_standard_library():
    found = {path.name: names
             for path in sorted((ROOT / "src" / "wsat").glob("*.py"))
             if (names := third_party_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
