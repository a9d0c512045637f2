"""Every module-level import of the package and its tests is read somewhere."""

import ast
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
