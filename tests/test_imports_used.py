"""Every name a module imports at module level is referenced in it.

The package modules (not ``__init__.py``, whose imports are the public API)
and the scripts are read as syntax trees; nothing is imported.  A name that
the benchmark's span tracer wraps in a module (``BOUNDARIES`` in
``perfbench/tracing.py``) may stay imported there without a reference.
"""

import ast
from pathlib import Path

import pytest

from test_trace_boundaries import boundaries

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "hypersched").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(tree):
    """Names bound by the module-level imports of ``tree`` that no Name
    node of the module reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    package = ROOT / "src" / "hypersched"
    wrapped = {attr for module, attr in boundaries() if path == package / f"{module}.py"}
    unused = {n: line for n, line in unused_imports(tree).items() if n not in wrapped}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def test_only_wrapped_names_are_silenced():
    """A ``# noqa: F401`` import in the package is a name the span tracer
    wraps in that module, and nothing else."""
    package = ROOT / "src" / "hypersched"
    silenced = set()
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                silenced |= {
                    (path.stem, alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                }
    assert silenced
    assert silenced <= set(boundaries())


def test_an_unused_import_is_caught():
    tree = ast.parse("from .greedy import delta_matrix, greedy_schedule\ngreedy_schedule()\n")
    assert unused_imports(tree) == {"delta_matrix": 1}
