"""Checks on the library source itself."""
import ast
from pathlib import Path

import latmod

SOURCES = sorted(Path(latmod.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise typed errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
