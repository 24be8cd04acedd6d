"""beta's seed lives in one module.

``beta_by_enumeration`` computes sigma with ``metrics._sigma``, starts its
walk just below it and checks beta = sigma itself, so no other module needs
``_sigma``.  The package modules and the scripts are read as syntax trees,
nothing is imported, and ``_sigma`` (as a name, an attribute or an imported
alias) may appear only in ``metrics.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypersched"
SCRIPTS = ROOT / "scripts"


def sigma_references(tree):
    """Line numbers at which ``tree`` names ``_sigma``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_sigma":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_sigma":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[-1] == "_sigma"]
    return lines


def test_sigma_is_referenced_only_in_metrics():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) > 2
    found = {
        str(path.relative_to(ROOT)): lines
        for path in paths
        if (lines := sigma_references(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert set(found) == {"src/hypersched/metrics.py"}, f"_sigma referenced outside metrics.py: {found}"


def test_a_reference_is_caught():
    tree = ast.parse(
        "from hypersched.metrics import _sigma\nimport hypersched\n_sigma(h)\nmetrics._sigma(h)\nsigma(h)\n"
    )
    assert sigma_references(tree) == [1, 3, 4]
