"""The package uses the standard library only."""

import ast
import sys
from pathlib import Path

import g2aa

PACKAGE = Path(g2aa.__file__).parent


def _imported_modules(tree: ast.AST):
    """Top-level names of every absolute import, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    foreign = []
    for path in modules:
        for name in _imported_modules(ast.parse(path.read_text(), str(path))):
            if name != "g2aa" and name not in sys.stdlib_module_names:
                foreign.append(f"{path.name}: {name}")
    assert not foreign, foreign
