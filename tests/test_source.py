import ast
import os
import subprocess
import sys
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


def test_package_root_loads_no_submodule():
    # Each name has one import path, its module; the root is a bare
    # namespace, so importing it costs no submodule.
    code = ("import sys, groupshift\n"
            "print(groupshift.__version__)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('groupshift.')))\n")
    src = str(Path(groupshift.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == ["0.1.0", "[]"]
