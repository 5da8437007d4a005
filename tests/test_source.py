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


# Each command and the groupshift modules it loads, run in order in one
# directory (the density verify and measure steps read the fill).  Every
# module a launch imports adds to its start-up, so a command loads only
# what it runs.
COMMAND_MODULES = [
    (["lll", "alphabet-bound", "--s", "2"], ["cli", "exact", "groups", "lll"]),
    (["group", "canon", "--group", "z^2", "--word", "x"], ["cli", "groups"]),
    (["density", "fill", "--group", "z^2", "--radius", "4", "--levels", "1",
      "--alpha", "1/2", "--out", "fill.json"],
     ["cli", "density", "groups", "patterns", "serialize"]),
    (["density", "verify", "--config", "fill.json", "--levels", "1",
      "--alpha", "1/2"],
     ["cli", "density", "groups", "patterns", "serialize"]),
    (["density", "measure", "--config", "fill.json", "--balls", "1..3",
      "--out", "measure.json"],
     ["cli", "density", "groups", "patterns", "serialize"]),
    (["color", "two", "--group", "z^2", "--radius", "4", "--c", "17",
      "--out", "cfg.json"],
     ["aperiodic", "cli", "exact", "groups", "lll", "patterns", "serialize"]),
    # The independent re-check and the witness resample nothing.
    (["verify", "distinct", "--config", "cfg.json", "--levels", "1"],
     ["aperiodic", "cli", "groups", "patterns", "serialize"]),
    (["witness", "--group", "heisenberg", "--word", "z^4"],
     ["aperiodic", "cli", "groups", "patterns", "serialize"]),
]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    code = ("import sys\n"
            "from groupshift import cli\n"
            "code = cli.dispatch(sys.argv[1:])\n"
            "print(*sorted(m.split('.')[1] for m in sys.modules\n"
            "              if m.startswith('groupshift.')))\n"
            "sys.exit(code)\n")
    src = str(Path(groupshift.__file__).resolve().parents[1])
    loaded = []
    for argv, _ in COMMAND_MODULES:
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, check=True,
                             cwd=tmp_path, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        loaded.append(out.splitlines()[-1].split())
    assert loaded == [modules for _, modules in COMMAND_MODULES]


# Each command, run in order in one directory, and whether it loads
# hashlib: only the digests of written files need it (it loads OpenSSL).
COMMAND_HASHLIB = [
    (["color", "two", "--group", "z^2", "--radius", "4", "--c", "17",
      "--out", "cfg.json", "--instance-out", "inst.json"], True),
    (["lll", "verify", "--instance", "inst.json"], False),
    (["lll", "verify", "--instance", "inst.json", "--out", "v.json"], True),
    (["verify", "distinct", "--config", "cfg.json", "--levels", "1"], False),
    (["group", "ball", "--group", "z^2", "--radius", "2"], False),
]


def test_only_a_command_that_writes_a_file_loads_hashlib(tmp_path):
    code = ("import sys\n"
            "from groupshift import cli\n"
            "code = cli.dispatch(sys.argv[1:])\n"
            "print('hashlib' in sys.modules)\n"
            "sys.exit(code)\n")
    src = str(Path(groupshift.__file__).resolve().parents[1])
    loaded = []
    for argv, _ in COMMAND_HASHLIB:
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, check=True,
                             cwd=tmp_path, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        loaded.append(out.splitlines()[-1] == "True")
    assert loaded == [loads for _, loads in COMMAND_HASHLIB]
