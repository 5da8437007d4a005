import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupshift
from groupshift import cli


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


def test_only_cli_imports_gc():
    # One collector policy per launch: cli.main runs the command with the
    # cyclic collector off, and no module pauses or freezes it besides.
    modules = sorted(Path(groupshift.__file__).parent.glob("*.py"))
    importers = {
        path.stem
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "gc" in {getattr(node, "module", None),
                     *(a.name for a in node.names)}
    }
    assert importers == {"cli"}


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


def after_dispatch(tmp_path, commands, expression) -> list:
    """Run each command in order, each in a fresh interpreter in
    ``tmp_path``; the value of ``expression`` printed after its dispatch."""
    code = ("import sys\n"
            "from groupshift import cli\n"
            "code = cli.dispatch(sys.argv[1:])\n"
            f"print({expression})\n"
            "sys.exit(code)\n")
    src = str(Path(groupshift.__file__).resolve().parents[1])
    return [subprocess.run([sys.executable, "-c", code, *argv],
                           capture_output=True, text=True, check=True,
                           cwd=tmp_path, timeout=60,
                           env={**os.environ, "PYTHONPATH": src}
                           ).stdout.splitlines()[-1]
            for argv in commands]


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
      "--out", "cfg.json", "--instance-out", "inst.json"],
     ["aperiodic", "cli", "exact", "groups", "lll", "patterns", "serialize"]),
    (["lll", "verify", "--instance", "inst.json", "--out", "v.json"],
     ["cli", "exact", "groups", "lll", "patterns", "serialize"]),
    # The independent re-check and the witness resample nothing.
    (["verify", "distinct", "--config", "cfg.json", "--levels", "1"],
     ["aperiodic", "cli", "groups", "patterns", "serialize"]),
    (["witness", "--group", "heisenberg", "--word", "z^4"],
     ["aperiodic", "cli", "groups", "patterns", "serialize"]),
]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    loaded = after_dispatch(
        tmp_path, [argv for argv, _ in COMMAND_MODULES],
        "*sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('groupshift.'))")
    assert [line.split() for line in loaded] == [
        modules for _, modules in COMMAND_MODULES]


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["enabled", "disabled"])
def test_dispatch_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch,
                                                      capsys, collecting):
    # Tests, the benchmark's tracer and library callers run commands
    # in-process through dispatch; only main freezes, after it returns.
    monkeypatch.chdir(tmp_path)
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, _ in COMMAND_MODULES:
            frozen = gc.get_freeze_count()
            assert cli.dispatch(argv) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == (
                frozen, collecting)
    finally:
        (gc.enable if was_collecting else gc.disable)()


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
    loaded = after_dispatch(tmp_path, [argv for argv, _ in COMMAND_HASHLIB],
                            "'hashlib' in sys.modules")
    assert loaded == [str(loads) for _, loads in COMMAND_HASHLIB]


# Each command, run in order in one directory, and whether it loads
# dataclasses, and fractions and decimal.  Only the launches that import
# lll load dataclasses (its events are copied with dataclasses.replace);
# the others use plain record classes.  Exact densities and slopes need
# fractions, which imports decimal; the group, witness and
# distinct-neighborhood checks load neither, so serialize imports
# decimal only where it writes exact numbers.
COMMAND_STDLIB = [
    (["lll", "alphabet-bound", "--s", "2"], True, True),
    (["group", "canon", "--group", "z^2", "--word", "x"], False, False),
    (["group", "ball", "--group", "z^2", "--radius", "2"], False, False),
    (["density", "fill", "--group", "z^2", "--radius", "4", "--levels", "1",
      "--alpha", "1/2", "--out", "fill.json"], False, True),
    (["density", "verify", "--config", "fill.json", "--levels", "1",
      "--alpha", "1/2"], False, True),
    (["density", "measure", "--config", "fill.json", "--balls", "1..3",
      "--alpha", "1/2"], False, True),
    (["color", "two", "--group", "z^2", "--radius", "4", "--c", "17",
      "--out", "cfg.json", "--instance-out", "inst.json"], True, True),
    (["lll", "verify", "--instance", "inst.json"], True, True),
    (["verify", "distinct", "--config", "cfg.json", "--levels", "1"],
     False, False),
    (["witness", "--group", "heisenberg", "--word", "z^4"], False, False),
]


def test_only_a_command_that_imports_lll_loads_dataclasses(tmp_path):
    loaded = after_dispatch(
        tmp_path, [argv for argv, _, _ in COMMAND_STDLIB],
        "'dataclasses' in sys.modules, 'fractions' in sys.modules,"
        " 'decimal' in sys.modules")
    assert loaded == [f"{dc} {fr} {fr}" for _, dc, fr in COMMAND_STDLIB]



def names_used(node) -> set:
    """Every name ``node`` mentions: names, attributes, import aliases
    and string constants (the bench tracer wraps functions by name)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.update((sub.name, sub.asname))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def test_package_holds_only_what_a_command_runs():
    # Each module-level function and class is named somewhere in the
    # package or the bench outside its own definition.  What only tests
    # reach belongs in tests/oracles.py, which no package module imports.
    package = Path(groupshift.__file__).parent
    bench = package.parents[1] / "bench"
    assert bench.is_dir()
    modules = sorted(package.glob("*.py"))
    defined, used = [], set()
    for path in modules + sorted(bench.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            used |= names_used(stmt) - {name}
            if path.parent == package and name is not None:
                defined.append((path.stem, name))
    assert defined
    assert [f"{m}.{n}" for m, n in defined if n not in used] == []
    imports = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "oracles" in {getattr(node, "module", None),
                          *(a.name.split(".")[0] for a in node.names)}
    ]
    assert imports == []
