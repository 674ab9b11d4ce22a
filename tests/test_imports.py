"""Every module-level import of the package is read in its own module.

A deleting change can leave an import behind, and a name imported only so
that a tracer can wrap it would trace nothing; both fail here.
"""

import ast
from pathlib import Path

import pytest

import satotate

MODULES = sorted(Path(satotate.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module):
    """(bound name, line) of each module-level import, __future__ features aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, names inside string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _read(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in read]
    assert unused == []
