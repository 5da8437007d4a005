import ast
from pathlib import Path

import groupshift


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one.
    modules = sorted(Path(groupshift.__file__).parent.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
