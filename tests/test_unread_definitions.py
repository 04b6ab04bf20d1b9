"""Every module-level function and class in ``src/lexmatch`` is read by the
library itself or exported, so that no helper lives on only because a test
calls it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lexmatch"

# the exact reference that the tests compare the solvers against
TEST_ONLY = {"reference.ranked_dp"}


def _names_in(tree, target):
    """The string keys or items of the module-level assignment to target."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == target
        for name in ast.literal_eval(node.value)
    }


def test_every_definition_is_read_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    package = trees["__init__"]
    read |= _names_in(package, "__all__") | _names_in(package, "_LAZY")
    unread = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and node.name not in read
    }
    assert unread == TEST_ONLY
