"""Only ``main`` writes in ``cli.py``.  Commands return their report, so a
fault found before ``main`` writes it leaves stdout empty."""

import ast
from pathlib import Path

from hypersched import cli


def _is_write(node):
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "print") or (
        isinstance(func, ast.Attribute) and func.attr == "write"
    )


def test_main_is_the_only_writer():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = {id(n) for n in ast.walk(main)}
    writes = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _is_write(n)]
    assert any(id(n) in in_main for n in writes)
    assert [f"cli.py:{n.lineno}" for n in writes if id(n) not in in_main] == []
