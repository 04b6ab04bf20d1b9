"""Every module-level function and class in ``src/lexmatch`` is read by the
library itself or exported, and so is every method and property of a class
that it does not export, so that no helper lives on only because a test
calls it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lexmatch"

# the exact reference that the tests compare the solvers against
TEST_ONLY = {"reference.ranked_dp"}

TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_in(tree, target):
    """The string keys or items of the module-level assignment to target."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == target
        for name in ast.literal_eval(node.value)
    }


def _read():
    """Every name the library reads, as a variable or as an attribute."""
    read = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _defined(body, kinds):
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("__")]


EXPORTED = _names_in(TREES["__init__"], "__all__") | _names_in(TREES["__init__"], "_LAZY")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_is_read_or_exported():
    read = _read() | EXPORTED
    unread = {
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in _defined(tree.body, DEFINITIONS)
        if node.name not in read
    }
    assert unread == TEST_ONLY


def test_every_method_of_an_unexported_class_is_read():
    classes = {
        f"{module}.{node.name}": node
        for module, tree in TREES.items()
        for node in _defined(tree.body, ast.ClassDef)
        if node.name not in EXPORTED
    }
    assert {"_state.RankedState", "model.ScaledLeximin", "fastgen.FixSets"} <= classes.keys()
    read = _read()
    unread = {
        f"{name}.{method.name}"
        for name, node in classes.items()
        for method in _defined(node.body, (ast.FunctionDef, ast.AsyncFunctionDef))
        if method.name not in read
    }
    assert unread == set()
