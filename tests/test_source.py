"""Rules on the library's source text."""

import ast
from pathlib import Path

import pytest

import toruslb


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime invariant must raise
    # instead; this test fails by pytest.fail, which -O keeps
    root = Path(toruslb.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements in toruslb: {', '.join(found)}")
