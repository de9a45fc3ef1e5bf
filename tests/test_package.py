"""Package layout: src/ carries no test-only API."""

import ast
from pathlib import Path

import almost2d

SRC = Path(almost2d.__file__).parent


def test_every_module_level_definition_is_exported_or_used():
    """Each module-level function and class is in almost2d.__all__ or is
    named (called, subclassed, read as an attribute) somewhere in src/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    orphans = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in almost2d.__all__
        and node.name not in referenced
    ]
    assert orphans == []
