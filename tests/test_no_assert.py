"""Library code raises real errors: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import hypersched

PACKAGE = Path(hypersched.__file__).parent


def test_no_assert_statements():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
