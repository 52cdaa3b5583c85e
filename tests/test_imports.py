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


def _unused_imports(tree: ast.AST):
    """Names an import binds that the module never reads; ``from
    __future__`` imports bind no name."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from (f"{node.lineno}: {name}" for name in bound if name not in read)


def test_no_unused_imports():
    # the package's __init__.py imports its public names to re-export them
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in (root / "src" / "g2aa").glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    assert len(paths) > 20
    unused = [f"{path.relative_to(root)}:{line}" for path in sorted(paths)
              for line in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not unused, unused


def _float_uses(tree: ast.AST):
    """Each ``float`` name, float literal and attribute whose name holds
    "float", by line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            yield f"{node.lineno}: float"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield f"{node.lineno}: {node.value!r}"
        elif isinstance(node, ast.Attribute) and "float" in node.attr.lower():
            yield f"{node.lineno}: .{node.attr}"


def test_package_has_no_float():
    # every answer is exact over Q(sqrt2): no conversion to, literal of or
    # attribute named after a float anywhere in the package
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}:{use}" for path in modules
             for use in _float_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, found
