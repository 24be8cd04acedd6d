"""The benchmark's span tracer wraps ``hypersched`` functions by name.

``perfbench/tracing.py`` lists them in ``BOUNDARIES`` as (module, attribute)
pairs and replaces each with a wrapper; a moved or deleted name makes it
crash.  The list is read from the file's syntax tree, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def boundaries():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("BOUNDARIES not found")


def test_every_boundary_resolves_to_a_callable():
    pairs = boundaries()
    assert pairs
    for module, attr in pairs:
        mod = importlib.import_module("hypersched." + module)
        assert callable(getattr(mod, attr, None)), f"hypersched.{module}.{attr}"
