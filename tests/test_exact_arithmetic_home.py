"""The int-over-lcm scaling lives in one module.

Every exact quantity the package computes in ints over a common
denominator, weight matrices included, is scaled by ``lp._over_lcm``.  The
package modules are read as syntax trees, nothing is imported, and ``lcm``
(as a name, an attribute or an imported alias) may appear only in ``lp.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypersched"


def lcm_references(tree):
    """Line numbers at which ``tree`` names ``lcm``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "lcm":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "lcm":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[-1] == "lcm"]
    return lines


def test_lcm_is_referenced_only_in_lp():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := lcm_references(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert set(found) == {"lp.py"}, f"lcm referenced outside lp.py: {found}"


def test_a_reference_is_caught():
    tree = ast.parse("from math import lcm\nimport math\nlcm(2, 3)\nmath.lcm(4)\n_over_lcm([])\n")
    assert lcm_references(tree) == [1, 3, 4]
