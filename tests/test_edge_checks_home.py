"""The structural edge checks live in one place.

Every ``Hypergraph`` is built through ``Hypergraph.__post_init__``, which
refuses an edge of fewer than 2 links or with an id outside 0..N-1, so no
other code needs to check either.  The package modules are read as syntax
trees, nothing is imported, and ``EdgeTooSmall`` and ``LinkOutOfRange`` may
be raised only inside that method.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypersched"
CHECKS = {"EdgeTooSmall", "LinkOutOfRange"}


def raise_sites(tree):
    """``(qualified name of the enclosing def, error)`` for each raise of one
    of ``CHECKS`` in ``tree``, as ``raise E(...)``, ``raise E`` or
    ``raise module.E(...)``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in CHECKS:
                found.append((".".join(scope), name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_edge_checks_are_raised_only_at_construction():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 2
    found = {
        (path.name, scope, name)
        for path in paths
        for scope, name in raise_sites(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("hypergraph.py", "Hypergraph.__post_init__", "EdgeTooSmall"),
        ("hypergraph.py", "Hypergraph.__post_init__", "LinkOutOfRange"),
    }


def test_a_raise_is_caught():
    tree = ast.parse(
        "def f(h):\n"
        "    raise EdgeTooSmall(h.edges[0])\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise errors.LinkOutOfRange((0, 5), 5, 3)\n"
        "    def k(self):\n"
        "        raise ValueError\n"
        "raise EdgeTooSmall\n"
    )
    assert raise_sites(tree) == [("f", "EdgeTooSmall"), ("C.g", "LinkOutOfRange"), ("", "EdgeTooSmall")]
