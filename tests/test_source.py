"""Static checks of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "midecay"


def _module_names(tree):
    """The names a module's top level binds with def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_module_name_is_used_in_the_package():
    # a private module-level helper serves the package alone, so one that
    # nothing in the package reads is dead code, whatever the tests call
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    private = [(module, name) for module, tree in trees.items() for name in _module_names(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert private
    assert [f"{module}: {name}" for module, name in private if name not in used] == []
