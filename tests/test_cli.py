import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import groupshift
from groupshift import aperiodic, cli, serialize
from groupshift.aperiodic import build_2coloring_instance, build_t_sets
from groupshift.density import build_forest
from groupshift.exact import Quad
from groupshift.groups import (GroupModel, InputError, IntegerLattice,
                               parse_group_spec)
from groupshift.lll import verify_condition
from groupshift.patterns import WindowConfig
from oracles import check_instance


def run(argv):
    return cli.dispatch(argv)


def run_capped(argv, limit=1 << 30, cwd=None, timeout=120):
    """Run the CLI in a child process whose address space is capped at
    ``limit`` bytes, so a runaway allocation fails in the child alone; a
    child still running after ``timeout`` seconds fails the test."""
    code = ("import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, hard))\n"
            "from groupshift import cli\n"
            "sys.exit(cli.dispatch(sys.argv[1:]))\n")
    src = str(Path(groupshift.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=timeout, cwd=cwd, env={**os.environ, "PYTHONPATH": src},
    )


def sha256_file(path) -> str:
    """SHA-256 of a file as read back from disk: the oracle for the digests
    that the CLI takes from the bytes as it writes them."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class RecordingFile(io.RawIOBase):
    """A raw binary file that keeps the bytes written to it."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.data += data
        return len(data)


def write_constant_config(path, radius=6, symbol=0):
    z2 = IntegerLattice(2)
    window = z2.ball(radius=radius)
    x = WindowConfig(group=z2, window=window, colors=(symbol,) * len(window),
                     alphabet_size=2)
    path.write_text(serialize.dumps(serialize.window_to_json(x)))


# Any JSON document, with tuples for arrays too; lists of scalars alone
# come up often, since the writer joins each in one piece.
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-2 ** 3000, 2 ** 3000) | st.floats()
                | st.text())
json_documents = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.lists(json_scalars, max_size=5)),
    max_leaves=25)

# The parts of a Quad: either sign, zero, d = 1, power-of-two
# denominators (written from exact Decimals) and others (written as ints).
rendered_fractions = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6).map(Fraction),
    st.builds(Fraction, st.integers(-2 ** 400, 2 ** 400),
              st.integers(0, 1400).map(lambda k: 2 ** k)),
    st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
              st.integers(1, 10 ** 12)),
)


class TestSerialization:
    def test_window_round_trip(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=3)
        colors = tuple((g[0] + g[1]) % 2 for g in window.members)
        x = WindowConfig(group=z2, window=window, colors=colors,
                         alphabet_size=2)
        data = serialize.window_to_json(x)
        back = serialize.window_from_json(json.loads(serialize.dumps(data)))
        assert back.colors == x.colors
        assert back.window.members == window.members
        assert back.window.radius == 3

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["z", "z^2", "free:2", "z2*z3", "heisenberg"]),
           st.integers(0, 3), st.randoms(use_true_random=False))
    def test_window_decodes_cells_in_any_order_and_spelling(self, spec,
                                                            radius, rng):
        group = parse_group_spec(spec)
        window = group.ball(radius=radius)
        colors = tuple(rng.randrange(3) for _ in window.members)
        text = serialize.dumps(serialize.window_to_json(
            WindowConfig(group, window, colors, 3)))
        data = json.loads(text)
        s = group.labels[0]
        cells = [[f"{w} {s} {s}^-1" if rng.random() < 0.5 else w, a]
                 for w, a in data["cells"]]
        rng.shuffle(cells)
        back = serialize.window_from_json({**data, "cells": cells})
        assert back.colors == colors
        assert serialize.dumps(serialize.window_to_json(back)) == text

    def test_instance_round_trip_preserves_margins(self):
        z2 = IntegerLattice(2)
        tsets = build_t_sets(z2, c=17, i_max=1)
        inst = build_2coloring_instance(z2, z2.ball(radius=8), tsets)
        data = json.loads(serialize.dumps(serialize.instance_to_json(inst)))
        back = serialize.instance_from_json(data)
        original = verify_condition(inst)
        restored = verify_condition(back)
        assert restored.holds == original.holds
        assert sorted(map(float, restored.margins.values())) == (
            sorted(map(float, original.margins.values()))
        )

    def test_instance_variables_are_read_in_declaration_order(self):
        data = {"variables": [{"id": "b", "alphabet": 3},
                              {"id": "a", "alphabet": 2}],
                "events": [{"id": [1, 0], "support": ["a", "b"],
                            "probability": "1/6", "weight": "1/2"}]}
        inst = serialize.instance_from_json(data)
        assert inst.alphabet == (3, 2)
        assert inst.events[0].support == (1, 0)
        assert serialize.instance_to_json(inst)["variables"] == [
            {"id": "v0", "alphabet": 3}, {"id": "v1", "alphabet": 2}]

    def test_dumps_is_deterministic(self):
        payload = {"b": 1, "a": [2, {"z": 3, "y": 4}]}
        assert serialize.dumps(payload) == serialize.dumps(
            json.loads(serialize.dumps(payload))
        )

    @given(json_documents)
    @example([[], {}, (), [[]], {"": {}}, ((1, "a"), ())])
    @example([True, 1, False, 0, 1.0, None, [True, False], [None, None]])
    @example({"\x00\x1f\x7f\"\\": ["\u00e9", "\U0001f600", "\ud800"]})
    @example([2 ** 4000, -2 ** 4000, [2 ** 64, 1]])
    @example([float("nan"), float("inf"), -float("inf"), [0.1, -0.0, 1e300]])
    def test_dumps_matches_json_dumps(self, value):
        assert serialize.dumps(value) == json.dumps(
            value, sort_keys=True, indent=2) + "\n"

    # The text layer's chunk at its default, and at 1, where every piece
    # passes straight on to the binary file.
    @pytest.mark.parametrize("chunk", [None, 1])
    @given(json_documents)
    @example([[], {}, (), [[]], {"": {}}, ((1, "a"), ())])
    @example([[1, 2, 3, 4, 5], {"a": [True, None, 0.5, "x", -1]}])
    @example([2 ** 4000, -2 ** 4000, [2 ** 64, 1]])
    def test_dump_writes_the_bytes_of_dumps(self, chunk, value):
        # Into a string, and through a text layer into a binary file.
        text = serialize.dumps(value)
        into = io.StringIO()
        serialize.dump(value, into)
        file = RecordingFile()
        with io.TextIOWrapper(file, encoding="utf-8", newline="\n") as fh:
            if chunk:
                fh._CHUNK_SIZE = chunk
            serialize.dump(value, fh)
        assert into.getvalue() == text
        assert file.data == text.encode()
        assert text == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_dump_never_holds_the_whole_text(self, tmp_path, monkeypatch):
        # A verdict of 2,000 events whose margins are 2-6 KB of digits, 70
        # distinct ones shared as lll.verify_condition shares them.
        margins = [f"{k}{'3' * (1000 + 30 * k)}/{'7' * (1000 + 30 * k)}"
                   for k in range(70)]
        verdict = {"holds": True, "events": [
            {"id": [k % 3 + 1, f"x^{k}y"], "probability": "1/8",
             "weight": {"rational": "1/4", "sqrt2": "-1/9"},
             "margin": margins[k % 70], "margin_float": 0.0, "ok": True}
            for k in range(2000)]}
        sizes = []
        write = serialize._HashingFile.write

        def record(self, data):
            sizes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(serialize._HashingFile, "write", record)
        digest = serialize.write_artifact(tmp_path / "verdict.json", verdict)
        text = (json.dumps(verdict, sort_keys=True, indent=2) + "\n").encode()
        assert digest == hashlib.sha256(text).hexdigest()
        assert len(text) > 1000 * 8192
        # The text layer passes its 8 KiB buffer on whenever it fills, and
        # no piece of this verdict is longer than that.
        assert max(sizes) <= 8192

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(rendered_fractions, rendered_fractions),
                    max_size=6),
           st.lists(st.integers(0, 10 ** 4), max_size=6))
    @example([(Fraction(-7), Fraction(0)), (Fraction(0), Fraction(-1, 3))],
             [])
    def test_rendered_quads_dump_as_json_dumps(self, parts, variables):
        self.check_rendered(parts, variables)

    def test_margin_past_the_int_digit_limit_dumps_as_json_dumps(self):
        # 4,342 digits over 2^14401 (4,336 digits); kept out of the
        # examples above, which hypothesis would print with repr().
        self.check_rendered(
            [(Fraction(-3 ** 9100, 2 ** 14401), Fraction(5, 2 ** 14401)),
             (Fraction(3 ** 9100), Fraction(0))], [0])

    @staticmethod
    def check_rendered(parts, variables):
        # Rendered numbers and variable names are written quoted as they
        # are, a list of names in a single join: the bytes are still
        # those of json.dumps.
        render = serialize.quad_renderer()
        quads = [Quad(a, b) for a, b in parts]
        with serialize.unlimited_int_digits():
            document = {"quads": [render(q) for q in quads],
                        "names": [serialize._Plain(f"v{v}")
                                  for v in variables],
                        "first": render(quads[0]) if quads else None}
            assert [serialize.quad_renderer()(q) for q in quads] == [
                str(a) if not b else {"rational": str(a), "sqrt2": str(b)}
                for a, b in parts]
            assert serialize.dumps(document) == json.dumps(
                document, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 15_000), max_size=10).flatmap(
        lambda ks: st.permutations(ks + [0, 1, 14_001, 15_000])))
    def test_power_of_two_texts_are_the_int_texts(self, exponents):
        # Each 2^k is built from the nearest lower one asked for so far,
        # in any order, repeats included.
        text = serialize._power_of_two_texts()
        with serialize.unlimited_int_digits():
            assert [text(k) for k in exponents] == [
                str(1 << k) for k in exponents]

    def test_pgm_shape(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=2)
        x = WindowConfig(group=z2, window=window, colors=(1,) * len(window),
                         alphabet_size=2)
        lines = serialize.window_to_pgm(x).splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "5 5"
        assert len(lines) == 3 + 5
        assert lines[3].split() == ["2", "2", "1", "2", "2"]

    def test_csv_shape(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=1)
        x = WindowConfig(group=z2, window=window, colors=(0,) * len(window),
                         alphabet_size=2)
        rows = serialize.window_to_csv(x).splitlines()
        assert rows == [",0,", "0,0,0", ",0,"]

    def test_forest_dot_contains_parent_edges(self):
        z = IntegerLattice(1)
        f = build_forest(z, z.ball(radius=6), 1)
        dot = serialize.forest_to_dot(f)
        assert "digraph forest" in dot
        assert '"L0:x" -> "L1:e";' in dot


class TestExitCodes:
    def test_check_constant(self, capsys):
        assert run(["lll", "check-constant"]) == 0
        assert capsys.readouterr().out.strip() == "17"

    def test_alphabet_bound(self, capsys):
        assert run(["lll", "alphabet-bound", "--s", "1"]) == 0
        assert capsys.readouterr().out.strip() == "524288"

    def test_canon(self, capsys):
        assert run(["group", "canon", "--group", "free:2",
                    "--word", "a a^-1 b"]) == 0
        assert capsys.readouterr().out.strip() == "b"

    def test_usage_error(self):
        assert run(["group", "canon", "--group", "free:2"]) == 2
        assert run(["no-such-command"]) == 2

    def test_bad_group_spec(self):
        assert run(["group", "canon", "--group", "so(3)",
                    "--word", "a"]) == 2

    def test_resource_error(self):
        assert run(["group", "ball", "--group", "free:2",
                    "--radius", "10", "--cap", "50"]) == 3
        # the cap, not the radius, bounds the work and the memory
        assert run(["group", "ball", "--group", "z^2",
                    "--radius", "1000000000", "--cap", "10"]) == 3

    @pytest.mark.parametrize("argv", [
        ["group", "ball", "--group", "z^2", "--radius", "3"],
        ["color", "squarefree", "--group", "z^2", "--radius", "2",
         "--alphabet", "4", "--maxlen", "1", "--out", "sf.json"],
        ["color", "two", "--group", "z^2", "--radius", "4", "--c", "17",
         "--out", "cfg.json"],
    ], ids=["group-ball", "color-squarefree", "color-two"])
    def test_negative_cap_is_a_usage_error(self, tmp_path, monkeypatch,
                                           capsys, argv):
        # Refused while parsing, before any work: nothing is written.
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--cap", "-1"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --cap: cap -1 is negative\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_3(self):
        # The free-group element a^1000000000 needs ~8 GB; the child limits
        # its own address space to 2 GB, so building it raises MemoryError.
        proc = run_capped(["witness", "--group", "free:2",
                           "--word", "a^1000000000"], limit=2 << 30)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: resource:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["group", "canon", "--group", "free:2",
         "--word", "a^99999999999999999999"],
        ["witness", "--group", "free:2", "--word", "a^-99999999999999999999"],
        ["verify", "distinct", "--config", "{huge}", "--levels", "1"],
    ], ids=["group-canon", "witness", "verify-distinct-cell"])
    def test_element_too_long_to_build_exits_3(self, tmp_path, capsys, argv):
        # A free-group power longer than any tuple: this raised
        # OverflowError, a traceback with exit 1.
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({
            "group": "free:2", "radius": 1, "alphabet_size": 2,
            "cells": [[w, 0] for w in ("", "a", "a^-1", "b", "b^-1",
                                       "a^99999999999999999999")]}))
        assert run([a.format(huge=huge) for a in argv]) == 3
        assert capsys.readouterr().err.startswith(
            "error: resource: a^")

    def test_resample_cap_exits_3(self, tmp_path, capsys):
        # C = 2 is below the admissible constant, so resampling needs more
        # than one step.
        assert run(["color", "two", "--group", "z^2", "--radius", "6",
                    "--c", "2", "--levels", "1", "--cap", "1",
                    "--out", str(tmp_path / "cfg.json")]) == 3
        assert capsys.readouterr().err == (
            "error: resource: resample cap 1 exceeded\n")

    def test_verify_distinct_all_zero(self, tmp_path, capsys):
        config = tmp_path / "allzero.json"
        write_constant_config(config)
        code = run(["verify", "distinct", "--config", str(config),
                    "--levels", "1", "--c", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations" in out and "violations 0" not in out

    def test_witness_trivial(self, capsys):
        assert run(["witness", "--group", "z^2", "--word", "x x^-1"]) == 0
        assert capsys.readouterr().out.strip() == "trivial"

    def test_witness_far_heisenberg_element(self, capsys):
        assert run(["witness", "--group", "heisenberg",
                    "--word", "z^400"]) == 0
        assert capsys.readouterr().out.strip().endswith("path length 159")

    def test_witness_free_word_needs_no_search_cap(self, capsys):
        assert run(["witness", "--group", "free:2",
                    "--word", "a^20 b"]) == 0
        assert capsys.readouterr().out.strip().endswith("path length 41")

    @pytest.mark.parametrize("group, word, length", [
        ("free:2", "a^20000 b", 20001),
        ("z^2", "x^1000000000", 1000000000),
    ])
    def test_witness_walk_above_the_limit_exits_3(self, capsys, group, word,
                                                  length):
        # Refused from |w|, before the walk of 2|w| vertices is built.
        assert run(["witness", "--group", group, "--word", word]) == 3
        assert capsys.readouterr().err == (
            f"error: resource: least conjugate of length {length} is above "
            f"the witness limit of 1024\n")

    def test_witness_conjugator_goes_the_short_way_round(self, capsys):
        assert run(["witness", "--group", "free:2",
                    "--word", "a^200 b a^-3 b^5"]) == 0
        out = capsys.readouterr().out.strip()
        assert "u 'b^-5 a^3'" in out and out.endswith("path length 417")

    @pytest.mark.parametrize("group, word", [
        ("z^2", "x^1000000000 y^-5"),
        ("heisenberg", "x^7 y^-1000000000 z^1000000000"),
    ])
    def test_canon_prints_huge_exponents_back(self, capsys, group, word):
        assert run(["group", "canon", "--group", group, "--word", word]) == 0
        assert capsys.readouterr().out.strip() == word


def run_main(argv, cwd):
    """Run the CLI as the console script does, through ``main`` and its
    exit, in a fresh interpreter with buffered streams; stdout and stderr
    as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(groupshift.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "groupshift.cli", *argv], capture_output=True,
        cwd=cwd, timeout=120, env=env,
    )


class TestMain:
    """``main`` is ``gc.disable``, ``dispatch``, ``gc.freeze`` and
    ``sys.exit``: the command runs with the collector off, the freeze
    spares the shutdown collections, and the rest of the exit (the code,
    the flushed streams, the written files) is dispatch's own."""

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_freezes_after_dispatch_returns(self, monkeypatch, code):
        calls = []

        def dispatch():
            calls.append("dispatch")
            return code

        monkeypatch.setattr(cli, "dispatch", dispatch)
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert calls == ["disable", "dispatch", "freeze"]
        assert exc.value.code == code

    def test_stdout_longer_than_a_pipe_buffer_is_written_whole(self,
                                                               tmp_path):
        argv = ["group", "ball", "--group", "z^2", "--radius", "60"]
        proc = run_main(argv, tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.dispatch(argv) == 0
        assert proc.returncode == 0
        assert len(proc.stdout) == 126_064
        assert proc.stdout == out.getvalue().encode()

    def test_manifest_digests_match_the_files_written(self, tmp_path):
        proc = run_main(["color", "two", "--group", "z^2", "--radius", "8",
                         "--c", "17", "--levels", "1", "--out", "cfg.json",
                         "--instance-out", "inst.json"], tmp_path)
        assert proc.returncode == 0
        manifest = json.loads(
            (tmp_path / "cfg.json.manifest.json").read_text())
        assert manifest["outputs"] == {
            name: sha256_file(tmp_path / name)
            for name in ("cfg.json", "inst.json")}

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify", "distinct", "--config", "constant.json", "--levels", "1",
          "--c", "2"], 1, b"checked 60 violations 60\n", b""),
        (["lll", "alphabet-bound", "--s", "0"], 2, b"",
         b"error: input: generator count must be positive\n"),
        (["group", "ball", "--group", "z^2", "--radius", "100",
          "--cap", "100"], 3, b"",
         b"error: resource: breadth-first search exceeds cap 100\n"),
    ], ids=["violation", "input", "resource"])
    def test_exit_code_passes_through(self, tmp_path, argv, code, out, err):
        write_constant_config(tmp_path / "constant.json")
        proc = run_main(argv, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# An all-zero window of radius 1 on z^2.
BASE_WINDOW = {"group": "z^2", "radius": 1, "alphabet_size": 2,
               "cells": [[w, 0] for w in ("", "x", "x^-1", "y", "y^-1")]}


# More digits than int() reads from text (4,300 by default).
LONG_EXPONENT = "9" * 5000


# Each argv exits 2 (input error); "{name}" fields name files the test
# writes: a missing path, non-JSON text, JSON without cells, JSON with a
# non-string group, a valid window configuration, and nine copies of
# BASE_WINDOW that are wrong in one way each: radius ``true``, one
# more cell outside the ball, the cell "x" listed again as "x y y^-1",
# the cell "y^-1" left out, the symbol 0.5 or ``true`` at the identity,
# alphabet size 2.5 or 16, and one more cell whose exponent has
# LONG_EXPONENT's digits.  "{config.parent}" is a directory, so it cannot
# be written as a file.  The cases in CAPPED run in a child process under
# a 1 GiB address-space limit: a build that allocates before it checks
# would take the host's memory there.
MALFORMED_INPUTS = {
    "density-verify-missing": ["density", "verify", "--config", "{missing}",
                               "--levels", "1", "--alpha", "1/2"],
    "density-verify-not-json": ["density", "verify", "--config", "{text}",
                                "--levels", "1", "--alpha", "1/2"],
    "density-verify-no-cells": ["density", "verify", "--config", "{nocells}",
                                "--levels", "1", "--alpha", "1/2"],
    "density-verify-int-group": ["density", "verify", "--config",
                                 "{intgroup}", "--levels", "1",
                                 "--alpha", "1/2"],
    "lll-verify-missing": ["lll", "verify", "--instance", "{missing}"],
    "verify-distinct-missing": ["verify", "distinct", "--config", "{missing}",
                                "--levels", "1"],
    "density-measure-missing": ["density", "measure", "--config", "{missing}",
                                "--balls", "1..2"],
    # json.loads recurses once per bracket: these exited 1 with a
    # RecursionError traceback.
    "lll-verify-deep-nesting": ["lll", "verify", "--instance", "{deep}"],
    "verify-distinct-deep-nesting": ["verify", "distinct", "--config",
                                     "{deep}", "--levels", "1"],
    "density-verify-deep-nesting": ["density", "verify", "--config",
                                    "{deep}", "--levels", "1",
                                    "--alpha", "0"],
    "density-measure-deep-nesting": ["density", "measure", "--config",
                                     "{deep}", "--balls", "1"],
    "density-fill-bad-alpha": ["density", "fill", "--group", "z^2",
                               "--radius", "3", "--levels", "1",
                               "--alpha", "0.5x", "--out", "{out}"],
    "density-measure-bad-balls": ["density", "measure", "--config",
                                  "{config}", "--balls", "3..x"],
    "density-measure-negative-ball": ["density", "measure", "--config",
                                      "{config}", "--balls=-1..2"],
    "group-ball-negative-radius": ["group", "ball", "--group", "z^2",
                                   "--radius", "-3"],
    "density-verify-bool-radius": ["density", "verify", "--config",
                                   "{boolradius}", "--levels", "1",
                                   "--alpha", "0"],
    "density-verify-cell-off-window": ["density", "verify", "--config",
                                       "{offwindow}", "--levels", "1",
                                       "--alpha", "0"],
    "density-verify-two-spellings": ["density", "verify", "--config",
                                     "{twospellings}", "--levels", "1",
                                     "--alpha", "0"],
    "density-verify-missing-cell": ["density", "verify", "--config",
                                    "{missingcell}", "--levels", "1",
                                    "--alpha", "0"],
    "density-measure-huge-range": ["density", "measure", "--config",
                                   "{config}", "--balls", "1..1000000000"],
    "color-squarefree-maxlen-0": ["color", "squarefree", "--group", "z^2",
                                  "--radius", "2", "--alphabet", "4",
                                  "--maxlen", "0"],
    "color-squarefree-maxlen-negative": ["color", "squarefree", "--group",
                                         "z^2", "--radius", "2",
                                         "--alphabet", "4", "--maxlen", "-1"],
    "group-ball-out-is-directory": ["group", "ball", "--group", "z",
                                    "--radius", "1", "--out",
                                    "{config.parent}"],
    "group-ball-out-in-missing-directory": ["group", "ball", "--group", "z",
                                            "--radius", "1", "--out",
                                            "{missing}/x.json"],
    "density-verify-fractional-symbol": ["density", "verify", "--config",
                                         "{halfsymbol}", "--levels", "1",
                                         "--alpha", "0"],
    "density-verify-bool-symbol": ["density", "verify", "--config",
                                   "{boolsymbol}", "--levels", "1",
                                   "--alpha", "0"],
    "density-verify-fractional-alphabet": ["density", "verify", "--config",
                                           "{halfalphabet}", "--levels", "1",
                                           "--alpha", "0"],
    # Condition (1) counts 1's in a {0,1} window: this exited 1, the code
    # of a verified violation.
    "density-verify-alphabet-16": ["density", "verify", "--config",
                                   "{alphabet16}", "--levels", "1",
                                   "--alpha", "1/2"],
    # The measured density is the share of 1's in a {0,1} window: this
    # exited 0 with the share of symbol 1.  Both radii lie in the window.
    "density-measure-alphabet-16": ["density", "measure", "--config",
                                    "{alphabet16}", "--balls", "0..1"],
    # A word exponent above int's digit limit: all but the window file,
    # which _load already refused, exited 1 with a ValueError traceback.
    "group-canon-long-exponent-z2": ["group", "canon", "--group", "z^2",
                                     "--word", f"x^{LONG_EXPONENT}"],
    "group-canon-long-exponent-heisenberg": [
        "group", "canon", "--group", "heisenberg",
        "--word", f"x^-{LONG_EXPONENT}"],
    "group-canon-long-exponent-free2": ["group", "canon", "--group",
                                        "free:2", "--word",
                                        f"b a^{LONG_EXPONENT}"],
    "group-ball-long-center-exponent": ["group", "ball", "--group", "z^2",
                                        "--radius", "1",
                                        "--center", f"y^{LONG_EXPONENT}"],
    "witness-long-exponent": ["witness", "--group", "free:2",
                              "--word", f"a^{LONG_EXPONENT}"],
    "verify-distinct-long-exponent-cell": ["verify", "distinct", "--config",
                                           "{longexponent}", "--levels",
                                           "1"],
}


CAPPED = {"density-measure-huge-range"}


@pytest.mark.parametrize("case, argv", list(MALFORMED_INPUTS.items()),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case, argv):
    files = {name: tmp_path / f"{name}.json"
             for name in ("missing", "text", "nocells", "intgroup", "config",
                          "out", "boolradius", "offwindow", "twospellings",
                          "missingcell", "halfsymbol", "boolsymbol",
                          "halfalphabet", "alphabet16", "deep",
                          "longexponent")}
    files["text"].write_text("not json {")
    files["deep"].write_text("[" * 200_000 + "]" * 200_000)
    files["nocells"].write_text(json.dumps(
        {"group": "z^2", "radius": 1, "alphabet_size": 2}))
    files["intgroup"].write_text(json.dumps(
        {"group": 5, "radius": 1, "alphabet_size": 2, "cells": []}))
    write_constant_config(files["config"])
    cells = BASE_WINDOW["cells"]
    for name, change in (("boolradius", {"radius": True}),
                         ("offwindow", {"cells": cells + [["x^5", 0]]}),
                         ("twospellings",
                          {"cells": cells + [["x y y^-1", 0]]}),
                         ("missingcell", {"cells": cells[:-1]}),
                         ("halfsymbol", {"cells": [["", 0.5]] + cells[1:]}),
                         ("boolsymbol", {"cells": [["", True]] + cells[1:]}),
                         ("halfalphabet", {"alphabet_size": 2.5}),
                         ("alphabet16", {"alphabet_size": 16}),
                         ("longexponent",
                          {"cells": cells + [[f"x^{LONG_EXPONENT}", 0]]})):
        files[name].write_text(json.dumps({**BASE_WINDOW, **change}))
    argv = [a.format(**files) for a in argv]
    if case in CAPPED:
        proc = run_capped(argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = run(argv), capsys.readouterr().err
    assert code == 2
    assert "error: input" in err
    assert "Traceback" not in err
    if case.endswith("-alphabet-16"):
        assert "requires a binary alphabet, not alphabet size 16" in err


class TestPipelines:
    def test_color_two_and_verify(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        inst = tmp_path / "inst.json"
        code = run(["color", "two", "--group", "z^2", "--radius", "8",
                    "--c", "17", "--levels", "1", "--seed", "0",
                    "--out", str(cfg), "--instance-out", str(inst)])
        assert code == 0
        assert run(["verify", "distinct", "--config", str(cfg),
                    "--levels", "1", "--c", "17"]) == 0
        assert run(["lll", "verify", "--instance", str(inst)]) == 0
        capsys.readouterr()

    def test_density_fill_verify_measure(self, tmp_path, capsys):
        cfg = tmp_path / "dens.json"
        assert run(["density", "fill", "--group", "z^2", "--radius", "10",
                    "--levels", "1", "--alpha", "2/5",
                    "--out", str(cfg)]) == 0
        assert run(["density", "verify", "--config", str(cfg),
                    "--levels", "1", "--alpha", "2/5"]) == 0
        out_path = tmp_path / "report.json"
        assert run(["density", "measure", "--config", str(cfg),
                    "--balls", "1..10", "--alpha", "2/5",
                    "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["alpha"] == "2/5"
        assert len(report["entries"]) == 10
        capsys.readouterr()

    def test_descending_radius_list_is_an_input_error(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cfg.json"
        write_constant_config(cfg)
        out_path = tmp_path / "report.json"
        assert run(["density", "measure", "--config", str(cfg),
                    "--balls", "5..1", "--out", str(out_path)]) == 2
        assert "radius list '5..1' is empty" in capsys.readouterr().err
        assert not out_path.exists()

    def test_squarefree_small(self, tmp_path, capsys):
        out = tmp_path / "sf.json"
        code = run(["color", "squarefree", "--group", "free:2",
                    "--radius", "2", "--alphabet", str(2 ** 21),
                    "--maxlen", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()
        capsys.readouterr()

    def test_squarefree_maxlen_beyond_the_window(self, tmp_path):
        # No simple path on the 13-cell window has more than 12 vertices,
        # so every half-length from 6 on gives the same instance and the
        # same coloring.  The child's memory is capped: a build whose
        # work grows with --maxlen fails there instead of on the host.
        argv = ["color", "squarefree", "--group", "z^2", "--radius", "2",
                "--alphabet", "16", "--seed", "0"]
        for maxlen in ("6", "1000000"):
            proc = run_capped(argv + ["--maxlen", maxlen,
                                      "--out", f"sf{maxlen}.json"],
                              cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "sf6.json").read_bytes()
                == (tmp_path / "sf1000000.json").read_bytes())

    def test_build_forest_dot(self, tmp_path, capsys):
        out = tmp_path / "forest.dot"
        assert run(["density", "build-forest", "--group", "z",
                    "--radius", "10", "--levels", "1",
                    "--format", "dot", "--out", str(out)]) == 0
        assert "digraph forest" in out.read_text()
        capsys.readouterr()


class TestDeterminism:
    def repeat(self, tmp_path, name, argv_builder):
        artifacts = []
        manifests = []
        for tag in ("one", "two"):
            d = tmp_path / f"{name}-{tag}"
            d.mkdir()
            out = d / "out.json"
            assert run(argv_builder(out)) in (0, 1)
            artifacts.append(out.read_bytes())
            manifest = json.loads(
                (d / "out.json.manifest.json").read_text()
            )
            manifest.pop("duration_s")
            manifest["argv"] = [
                a.replace(str(d), "<dir>") for a in manifest["argv"]
            ]
            manifest["outputs"] = {
                k.replace(str(d), "<dir>"): v
                for k, v in manifest["outputs"].items()
            }
            manifests.append(manifest)
        assert artifacts[0] == artifacts[1]
        assert manifests[0] == manifests[1]

    def test_color_two(self, tmp_path, capsys):
        self.repeat(tmp_path, "color", lambda out: [
            "color", "two", "--group", "z^2", "--radius", "8",
            "--c", "17", "--levels", "1", "--seed", "0", "--out", str(out),
        ])
        capsys.readouterr()

    def test_density_fill(self, tmp_path, capsys):
        self.repeat(tmp_path, "fill", lambda out: [
            "density", "fill", "--group", "z^2", "--radius", "10",
            "--levels", "1", "--alpha", "377/610", "--out", str(out),
        ])
        capsys.readouterr()


# Instances that lll verify must reject with exit 2, each given by the keys
# it sets over one binary variable v0.  With the repeated id the second
# event's margin used to overwrite the first's, so a failing event was
# reported "ok"; the negative probability used to certify; the repeated
# variable used to be read as one variable of alphabet 3; the alphabet
# sizes "x", -3, 0 and true used to certify.
ONE_VARIABLE = [{"id": "v0", "alphabet": 2}]
FAIR_EVENT = {"id": [1, 0], "support": ["v0"], "probability": "1/2",
              "weight": "1/2"}
BAD_INSTANCES = {
    "repeated-id": {"events": [
        FAIR_EVENT,
        {"id": [1, 0], "support": ["v0"], "probability": "1/8",
         "weight": "1/2"},
    ]},
    "negative-probability": {"events": [
        {"id": [1, 0], "support": ["v0"], "probability": "-5",
         "weight": "1/2"},
    ]},
    "zero-denominator-probability": {"events": [
        {"id": [1, 0], "support": ["v0"], "probability": "1/0",
         "weight": "1/2"},
    ]},
    "zero-denominator-weight": {"events": [
        {"id": [1, 0], "support": ["v0"], "probability": "1/2",
         "weight": {"rational": "0", "sqrt2": "1/0"}},
    ]},
    "repeated-variable": {
        "variables": [*ONE_VARIABLE, {"id": "v0", "alphabet": 3}],
        "events": [FAIR_EVENT],
    },
    "undeclared-support": {"events": [{**FAIR_EVENT, "support": ["v9"]}]},
    **{f"id-{name}": {"events": [{**FAIR_EVENT, "id": ident}]}
       for name, ident in [("int", 5), ("null", None), ("dict", {"a": 1}),
                           ("bool", True), ("float", 0.5)]},
    **{f"alphabet-{k}": {"variables": [{"id": "v0", "alphabet": k}],
                         "events": [FAIR_EVENT]}
       for k in ("x", -3, 0, True)},
}


# What the reader says of some of them.
BAD_INSTANCE_MESSAGES = {
    "alphabet-0": "variable 0 has alphabet size 0, not an int >= 1",
    "repeated-id": "event id (1, 0) is repeated",
}


@pytest.mark.parametrize("name", list(BAD_INSTANCES), ids=list(BAD_INSTANCES))
def test_invalid_instance_exits_2(tmp_path, capsys, name):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"variables": ONE_VARIABLE,
                                **BAD_INSTANCES[name]}))
    assert run(["lll", "verify", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: input" in err
    assert BAD_INSTANCE_MESSAGES.get(name, "") in err
    assert "Traceback" not in err


def test_event_id_must_be_a_list(tmp_path, capsys):
    # A string id is read as the list of its characters, as before.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"variables": ONE_VARIABLE, "events": [
        FAIR_EVENT, {**FAIR_EVENT, "id": 5}]}))
    assert run(["lll", "verify", "--instance", str(path)]) == 2
    assert ("event 1 has the id 5; an event id must be a list"
            in capsys.readouterr().err)


NAMES = st.sampled_from(["v0", "v1", "v2", 0])  # "v2" and 0 often undeclared
JSON_LEAF = st.sampled_from([0, 1, "a", "ab", None, True, 0.5])
# Mostly valid values, so that many instances are read whole.
ALPHABETS = st.sampled_from([1, 2, 3] * 4 + [0, -1, True, None, 2.0, "2"])


@settings(max_examples=300, deadline=None)
@given(variables=st.lists(st.fixed_dictionaries({
           "id": NAMES, "alphabet": ALPHABETS}), max_size=3),
       events=st.lists(st.fixed_dictionaries({
           "id": st.lists(JSON_LEAF | st.lists(JSON_LEAF, max_size=1),
                          max_size=2) | JSON_LEAF | st.text("ab", max_size=2),
           "support": st.lists(NAMES, max_size=3),
           "probability": st.just("1/4"), "weight": st.just("1/2")}),
           max_size=4))
def test_read_instances_pass_the_instance_checks(variables, events):
    # LLLInstance checks nothing: whatever the reader returns must pass the
    # whole-instance checks, and whatever it refuses must raise an error
    # that cli._load turns into exit 2.
    try:
        inst = serialize.instance_from_json(
            {"variables": variables, "events": events})
    except (InputError, KeyError, TypeError):
        return
    check_instance(inst)
    assert len(inst.alphabet) == len(variables)
    assert len(inst.events) == len(events)


@pytest.fixture(scope="module")
def instance17(tmp_path_factory):
    """The instance color two writes at C = 17, and its verdict's bytes."""
    d = tmp_path_factory.mktemp("instance17")
    assert run(["color", "two", "--group", "z^2", "--radius", "8",
                "--c", "17", "--levels", "1", "--out", str(d / "cfg.json"),
                "--instance-out", str(d / "inst.json")]) == 0
    assert run(["lll", "verify", "--instance", str(d / "inst.json"),
                "--out", str(d / "verdict.json")]) == 0
    return (json.loads((d / "inst.json").read_text()),
            (d / "verdict.json").read_bytes())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_verdict_ignores_variable_names_and_order(instance17, data):
    # Variables are read in declaration order under any distinct names, so
    # renaming and reordering them leaves every margin as it was.
    inst, verdict = instance17
    declared = inst["variables"]
    order = data.draw(st.permutations(range(len(declared))))
    names = data.draw(st.lists(st.text(max_size=6), min_size=len(declared),
                               max_size=len(declared), unique=True))
    rename = {var["id"]: name for var, name in zip(declared, names)}
    renamed = {
        "variables": [{**declared[i], "id": rename[declared[i]["id"]]}
                      for i in order],
        "events": [{**e, "support": [rename[v] for v in e["support"]]}
                   for e in inst["events"]],
    }
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d, "inst.json"), Path(d, "verdict.json")
        path.write_text(json.dumps(renamed))
        assert run(["lll", "verify", "--instance", str(path),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == verdict


def test_verdict_on_stdout_is_the_verdict_file(instance17, tmp_path, capsys):
    inst, verdict = instance17
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    capsys.readouterr()
    assert run(["lll", "verify", "--instance", str(path)]) == 0
    assert capsys.readouterr().out.encode() == verdict


PRINTED = {
    "group-ball": ["group", "ball", "--group", "heisenberg", "--radius", "2"],
    "lll-verify": ["lll", "verify", "--instance", "{inst}"],
    "build-forest-json": ["density", "build-forest", "--group", "z^2",
                          "--radius", "4", "--levels", "2"],
    "build-forest-dot": ["density", "build-forest", "--group", "z^2",
                         "--radius", "4", "--levels", "2", "--format", "dot"],
    "density-measure": ["density", "measure", "--config", "{config}",
                        "--balls", "1..3", "--alpha", "1/2"],
}


@pytest.mark.parametrize("argv", list(PRINTED.values()), ids=list(PRINTED))
def test_stdout_artifact_is_the_out_file_on_any_stream(instance17, tmp_path,
                                                       argv):
    # Printed to a StringIO, as the benchmark's tracer redirects stdout; it
    # used to raise AttributeError on the missing binary buffer.
    (tmp_path / "inst.json").write_text(json.dumps(instance17[0]))
    write_constant_config(tmp_path / "config.json")
    argv = [a.format(inst=tmp_path / "inst.json",
                     config=tmp_path / "config.json") for a in argv]
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv + ["--out", str(out)]) == 0
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run(argv) == 0
    assert printed.getvalue().encode() == out.read_bytes()


def test_margin_beyond_int_digit_limit_is_rendered_exactly(tmp_path,
                                                           capsys):
    # 800 events on one variable: each margin is w (1 - w)^799 with
    # w = 2^-20, whose denominator 2^16000 has 4,817 digits.
    w = Fraction(1, 2 ** 20)
    events = [{"id": [k], "support": ["v0"], "probability": "0",
               "weight": str(w)} for k in range(800)]
    inst, out = tmp_path / "inst.json", tmp_path / "verdict.json"
    inst.write_text(json.dumps(
        {"variables": [{"id": "v0", "alphabet": 2}], "events": events}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run(["lll", "verify", "--instance", str(inst),
                "--out", str(out)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    capsys.readouterr()
    margin = json.loads(out.read_text())["events"][0]["margin"]
    assert len(margin) > 4300
    with serialize.unlimited_int_digits():
        assert Fraction(margin) == w * (1 - w) ** 799


def test_margin_above_the_height_limit_exits_3_at_once(tmp_path):
    # 50 events on one variable with w = 10^-20000: each margin w (1 - w)^49
    # would have millions of digits, and building and writing it ran until
    # a 15-second timeout killed it.
    events = [{"id": [k], "support": ["v0"], "probability": "0",
               "weight": "1e-20000"} for k in range(50)]
    (tmp_path / "inst.json").write_text(json.dumps(
        {"variables": ONE_VARIABLE, "events": events}))
    proc = run_capped(["lll", "verify", "--instance", "inst.json",
                       "--out", "verdict.json"], cwd=tmp_path, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: resource: the margin of event")
    assert not (tmp_path / "verdict.json").exists()



@pytest.mark.parametrize("weights, message", [
    # One signature just under the margin limit, 140 times: the verdict
    # would write 140 copies of a 150,000-digit margin, about 42 MB.
    (["1e-150000"] * 140, "the margins of the events through event (134,)"),
    # 40 signatures just under it: each margin would be built and rendered.
    ([f"{k}e-150000" for k in range(1, 41)], "the distinct margins through event (33,)"),
], ids=["verdict-bytes", "distinct-margins"])
def test_margins_above_a_summed_height_limit_exit_3_at_once(
        tmp_path, weights, message):
    variables = [{"id": f"v{k}", "alphabet": 2} for k in range(len(weights))]
    events = [{"id": [k], "support": [f"v{k}"], "probability": "0",
               "weight": w} for k, w in enumerate(weights)]
    (tmp_path / "inst.json").write_text(json.dumps(
        {"variables": variables, "events": events}))
    proc = run_capped(["lll", "verify", "--instance", "inst.json",
                       "--out", "verdict.json"], cwd=tmp_path, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: resource: {message}")
    assert not (tmp_path / "verdict.json").exists()


def test_huge_decimal_exponent_exits_3_at_once(tmp_path):
    # Fraction("1e-100000000") builds 10**100000000 first: this ran past a
    # 30-second timeout.  Its height is far above the limit, and so would be
    # the margin of any event that carries it.  Zero is read as zero
    # whatever its exponent.
    events = [{**FAIR_EVENT, "probability": "0e-100000000"},
              {**FAIR_EVENT, "id": [2], "weight": "1e-100000000"}]
    (tmp_path / "inst.json").write_text(json.dumps(
        {"variables": ONE_VARIABLE, "events": events}))
    proc = run_capped(["lll", "verify", "--instance", "inst.json",
                       "--out", "verdict.json"], cwd=tmp_path, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        "error: resource: number '1e-100000000' has a height above")
    assert not (tmp_path / "verdict.json").exists()


@pytest.mark.parametrize("alpha, code", [("1e-100000000", 0),
                                         ("1e100000000", 2)])
def test_huge_slope_exponent_is_read_at_once(tmp_path, alpha, code):
    # Fraction(alpha) builds 10**100000000 first: 1e-10000000 ran past a
    # 30-second timeout.  The first slope's convergent is 0, and the second
    # lies outside [0, 1].
    proc = run_capped(["density", "fill", "--group", "z", "--radius", "2",
                       "--levels", "1", "--alpha", alpha, "--out", "f.json"],
                      cwd=tmp_path, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_verdict_over_non_finite_ids_round_trips(tmp_path, capsys):
    # json.loads reads NaN and +-Infinity, and the verdict echoes each id.
    ids = [[float("nan")], [float("inf"), 1], [-float("inf")]]
    events = [{**FAIR_EVENT, "id": i, "probability": "1/8"} for i in ids]
    inst, out = tmp_path / "inst.json", tmp_path / "verdict.json"
    inst.write_text(json.dumps({"variables": ONE_VARIABLE, "events": events}))
    assert run(["lll", "verify", "--instance", str(inst),
                "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert '"NaN"' not in text and "NaN" in text and "-Infinity" in text
    verdict = json.loads(text)
    assert [repr(e["id"]) for e in verdict["events"]] == [
        "[nan]", "[inf, 1]", "[-inf]"]
    assert json.dumps(verdict, sort_keys=True, indent=2) + "\n" == text
    assert serialize.dumps(verdict) == text

# SHA-256 of each artifact of a small color-two-then-verify pipeline.  A
# change that alters any byte of the coloring, the instance or the verdict
# fails here; a deliberate output change must update these values.
GOLDEN_SHA256 = {
    "cfg.json":
        "9315cd84c868603359e095f0a4e55506b754e059e062e7d7be76b00622a5f164",
    "inst.json":
        "3420e2c538f47cb2ca439ca67209b1e8e17410a241cdc422757134742d2f58af",
    "verdict.json":
        "12433f9c4c76f83e015f6821e1c5b86f35efcaa10964233c22c1876767c66018",
}


def test_pipeline_artifacts_match_golden_hashes(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["color", "two", "--group", "z^2", "--radius", "10",
                "--c", "17", "--levels", "2", "--seed", "7",
                "--out", "cfg.json", "--instance-out", "inst.json"]) == 0
    assert run(["lll", "verify", "--instance", "inst.json",
                "--out", "verdict.json"]) == 0
    capsys.readouterr()
    assert {name: sha256_file(tmp_path / name)
            for name in GOLDEN_SHA256} == GOLDEN_SHA256


def _gcd_event(k, support, weight):
    return {"id": ["e", k], "support": support, "probability": "2/9",
            "weight": weight}


# Every builder's number is dyadic; this hand-written instance has
# denominators 3 and 21, so its margins are reduced by gcd, not by shifts.
# Its margins are zero (e5, e6), rational (e4), a pure multiple of sqrt(2)
# (e0, e3) or mixed in sign (e1) and not (e2).
GCD_WEIGHT = {"rational": "1/3", "sqrt2": "1/7"}
GCD_INSTANCE = {
    "variables": [{"id": f"v{v}", "alphabet": 3 if v == 4 else 2}
                  for v in range(7)],
    "events": [
        _gcd_event(0, ["v0", "v1"], "1/3"),
        _gcd_event(1, ["v1", "v2"], GCD_WEIGHT),
        _gcd_event(2, ["v2", "v3"], "1/3"),
        _gcd_event(3, ["v3"], GCD_WEIGHT),
        _gcd_event(4, ["v4"], "1/3"),
        _gcd_event(5, ["v5", "v6"], "1/3"),
        _gcd_event(6, ["v6"], "1/3"),
    ],
}
GCD_VERDICT_SHA256 = (
    "cb4fa2a9d1ae438f3b2244f6b1b980f7a3fdd8a1acf2965980c51afd74b9b514")


def test_non_dyadic_verdict_matches_golden_hash(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    Path("gcd.json").write_text(json.dumps(GCD_INSTANCE))
    assert run(["lll", "verify", "--instance", "gcd.json",
                "--out", "verdict.json"]) == 1
    assert "condition fails" in capsys.readouterr().err
    verdict = json.loads(Path("verdict.json").read_text())
    assert [e["ok"] for e in verdict["events"]] == [
        False, True, False, True, True, True, True]
    assert verdict["events"][1]["margin"] == {"rational": "-2/27",
                                              "sqrt2": "4/63"}
    assert sha256_file("verdict.json") == GCD_VERDICT_SHA256


# One small run of every other artifact-writing subcommand, in order (the
# measure step reads the fill), and the SHA-256 of each file it writes.
GOLDEN_RUNS = [
    (["density", "fill", "--group", "z^2", "--radius", "12", "--levels", "2",
      "--alpha", "2/5", "--out", "fill.json"],
     {"fill.json":
      "a6ab8d5a79035c8b0042ca0728d06ab87e11e8937f8983adbf4156acc05fe1df"}),
    (["density", "measure", "--config", "fill.json", "--balls", "1..12",
      "--alpha", "2/5", "--out", "measure.json"],
     {"measure.json":
      "93c386858ec02152e8be8995105bf17724da7efba9e07289b017df6335e35eb5"}),
    (["density", "build-forest", "--group", "z2*z3", "--radius", "6",
      "--levels", "2", "--out", "forest.json"],
     {"forest.json":
      "ea83e9789649dfca7d3119a88f0b1f75c567d00ded7d259e0b7e2e28e745cfff"}),
    (["density", "build-forest", "--group", "z^2", "--radius", "16",
      "--levels", "3", "--out", "forest3.json"],
     {"forest3.json":
      "6b3e99e25438213d29f1ce286e5afe206e97b892d3b24eeee7afc0ade573063b"}),
    (["density", "build-forest", "--group", "heisenberg", "--radius", "6",
      "--levels", "3", "--format", "dot", "--out", "forest3.dot"],
     {"forest3.dot":
      "549721ea235f14412f75103bc2c77e0234efcf51194091d70c18b14ed8f2858e"}),
    # Three-level forests on the non-abelian models, and fills over them.
    (["density", "fill", "--group", "free:2", "--radius", "6", "--levels",
      "3", "--alpha", "2/5", "--out", "fill-free.json"],
     {"fill-free.json":
      "088b1ffcdbbf909dac30f1e63edd2ab8df8e5668941e87bc18a7a729a05d308d"}),
    (["density", "fill", "--group", "heisenberg", "--radius", "6",
      "--levels", "3", "--alpha", "1/3", "--out", "fill-heis.json"],
     {"fill-heis.json":
      "c6f8a8883deba19f7d4259aa881ea3b7878ecab761f26e8b3a6d9efa02388936"}),
    (["density", "build-forest", "--group", "free:2", "--radius", "5",
      "--levels", "3", "--out", "forest-free.json"],
     {"forest-free.json":
      "916abe08e1623c808d7b840499415188f877dc0dc9aac60433e256d4213386a7"}),
    (["color", "squarefree", "--group", "free:2", "--radius", "2",
      "--alphabet", "16", "--maxlen", "2", "--seed", "3",
      "--out", "square.json"],
     {"square.json":
      "090f02fb5524ccc050038d6d5ed9d9fea2708b42b45afda0f969ba6f6883746e"}),
    # Odd paths of length 5 on the other models, non-abelian and abelian.
    (["color", "squarefree", "--group", "heisenberg", "--radius", "3",
      "--alphabet", "16", "--maxlen", "3", "--seed", "2",
      "--out", "square-h.json"],
     {"square-h.json":
      "8d407729734213018b951c39c2abd77f486423cdafad7832f601aa3cf70268ef"}),
    (["color", "squarefree", "--group", "z2*z3", "--radius", "6",
      "--alphabet", "16", "--maxlen", "3", "--seed", "2",
      "--out", "square-z2z3.json"],
     {"square-z2z3.json":
      "7c8b0b1f358f5b3f93be4c3b162c7a97f65602681dc4f2b05995b0f38b008162"}),
    (["color", "squarefree", "--group", "z^2", "--radius", "4",
      "--alphabet", "16", "--maxlen", "3", "--seed", "2",
      "--out", "square-z2.json"],
     {"square-z2.json":
      "20066193c933e1e0022097aa97f30feebeb756deb4ed044f569a20adce107228"}),
    (["witness", "--group", "heisenberg", "--word", "z^40",
      "--out", "witness.dot"],
     {"witness.dot":
      "76b96485b5cc5794a0079c8c2f4ba3ec1f2cdeaa72441a0581e3505c207112f4"}),
    (["group", "ball", "--group", "heisenberg", "--radius", "3",
      "--out", "ball.json"],
     {"ball.json":
      "9255ed887c0af3e0649e34cdeaa2e063f4e63291120280de6d6b302751431128"}),
    # Fills and a forest on non-abelian groups: ball order is not canonical
    # order within a sphere, so these pin the forest's canonical sorts.
    (["density", "fill", "--group", "heisenberg", "--radius", "5",
      "--levels", "2", "--alpha", "2/5", "--out", "fill-h.json"],
     {"fill-h.json":
      "041a6ac1a8f07b15cae73dfdcb8e6b6f7b52114dc97b064931e9dda34f3fe03e"}),
    (["density", "fill", "--group", "free:2", "--radius", "4",
      "--levels", "2", "--alpha", "377/610", "--out", "fill-f2.json"],
     {"fill-f2.json":
      "4428667790b8d001aca9830cab0696ba6312535bc54f4fbde74f29fb8cc3511a"}),
    (["density", "build-forest", "--group", "free:2", "--radius", "4",
      "--levels", "2", "--format", "json", "--out", "forest-f2.json"],
     {"forest-f2.json":
      "8d49ad1636c06a9e7550b1779f743418c8f775cc96b20ea6286167f2f966f778"}),
    # The JSON above sorts parents by word, which hides the order the
    # forest sorts them in; the DOT lists them in canonical order.
    (["density", "build-forest", "--group", "free:2", "--radius", "4",
      "--levels", "2", "--format", "dot", "--out", "forest-f2.dot"],
     {"forest-f2.dot":
      "2145ca05d07aae3bea33dc2bcd5f6ba91123c2653cf3274f22343293fd8d9e03"}),
    # C = 2 is below the admissible constant: 158 resamples, trace pinned.
    (["color", "two", "--group", "z^2", "--radius", "12", "--c", "2",
      "--levels", "2", "--seed", "7", "--out", "cfg2.json",
      "--trace-out", "trace2.json"],
     {"cfg2.json":
      "986d1e96000f9aa90c5cffbe0b0099f72b8e69d9256acc71ec441875e95e28ca",
      "trace2.json":
      "184880be212a2d65ff195400378ba005b07b984e6ae1eefe56e6a4c3078594ee"}),
]


def test_every_artifact_matches_golden_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, _ in GOLDEN_RUNS:
        assert run(argv) == 0
    capsys.readouterr()
    assert [{name: sha256_file(tmp_path / name) for name in digests}
            for _, digests in GOLDEN_RUNS] == [
                digests for _, digests in GOLDEN_RUNS]


def test_manifest_digests_are_the_files_on_disk(tmp_path, monkeypatch,
                                               capsys):
    # Each digest is taken from the bytes as they are written; the oracle
    # reads the file back.
    monkeypatch.chdir(tmp_path)
    for argv, digests in GOLDEN_RUNS:
        assert run(argv) == 0
        manifest = json.loads(
            Path(next(iter(digests)) + ".manifest.json").read_text())
        assert manifest["outputs"] == {name: sha256_file(name)
                                       for name in digests}
    # One file named twice would keep only the last artifact written, and a
    # manifest over an output would replace it: both are refused unwritten.
    Path("sub").mkdir()
    color = ["color", "two", "--group", "z^2", "--radius", "3", "--c", "17",
             "--levels", "1"]
    for outs in (["--out", "a.json", "--instance-out", "a.json"],
                 ["--out", "a.json", "--instance-out", "sub/../a.json"],
                 ["--out", "b.json", "--trace-out", "b.json.manifest.json"]):
        assert run(color + outs) == 2
        assert "name the same file" in capsys.readouterr().err
    assert not list(Path().glob("[ab].*"))
    capsys.readouterr()


def test_density_verify_searches_its_window_once(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["density", "fill", "--group", "z^2", "--radius", "8",
                "--levels", "2", "--alpha", "2/5", "--out", "fill.json"]) == 0
    searches = []
    ball = GroupModel.ball
    monkeypatch.setattr(GroupModel, "ball", lambda self, *args, **kwargs: (
        searches.append(kwargs) or ball(self, *args, **kwargs)))
    assert run(["density", "verify", "--config", "fill.json",
                "--levels", "2", "--alpha", "2/5"]) == 0
    assert searches == [{"radius": 8}]
    assert capsys.readouterr().out.startswith("clusters ")


# The stderr summary of each ``color`` run, taken while the commands still
# re-derived their events after resampling: the check they print is the
# resampler's closing scan over the one event family they build.
COLOR_SUMMARIES = [
    (["two", "--group", "z^2", "--radius", "22", "--c", "17", "--levels",
      "2", "--seed", "5"],
     "events 1193 resamples 0 checked 1193 violations 0\n"),
    (["two", "--group", "z^2", "--radius", "22", "--c", "2", "--levels",
      "2", "--seed", "5"],
     "events 1765 resamples 523 checked 1765 violations 0\n"),
    (["two", "--group", "heisenberg", "--radius", "6", "--c", "2",
      "--levels", "2", "--seed", "1"],
     "events 409 resamples 382 checked 409 violations 0\n"),
    (["two", "--group", "free:2", "--radius", "5", "--c", "2", "--levels",
      "2", "--seed", "1"],
     "events 133 resamples 36 checked 133 violations 0\n"),
    (["two", "--group", "z2*z3", "--radius", "8", "--c", "2", "--levels",
      "2", "--seed", "1"],
     "events 100 resamples 29 checked 100 violations 0\n"),
    (["squarefree", "--group", "free:2", "--radius", "6", "--alphabet",
      "16", "--maxlen", "3", "--seed", "0"],
     "warning: alphabet below the certified bound\n"
     "events 18772 resamples 168 square none\n"),
]


@pytest.mark.parametrize("argv, summary", COLOR_SUMMARIES)
def test_color_summaries_are_unchanged(tmp_path, monkeypatch, capsys, argv,
                                       summary):
    monkeypatch.chdir(tmp_path)
    assert run(["color", *argv, "--out", "out.json"]) == 0
    assert capsys.readouterr().err == summary


def watch_fitting_pairs(monkeypatch):
    """The TSets of each ``aperiodic.fitting_pairs`` call, in order."""
    calls = []
    fitting_pairs = aperiodic.fitting_pairs
    monkeypatch.setattr(aperiodic, "fitting_pairs", lambda group, w, tsets: (
        calls.append(tsets) or fitting_pairs(group, w, tsets)))
    return calls


def test_color_two_derives_each_level_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    calls = watch_fitting_pairs(monkeypatch)
    assert run(["color", "two", "--group", "z^2", "--radius", "8",
                "--c", "2", "--levels", "2", "--seed", "0",
                "--out", "cfg.json"]) == 0
    assert calls == [build_t_sets(IntegerLattice(2), 2, 2)]
    capsys.readouterr()


def test_verify_distinct_derives_each_level_once(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["color", "two", "--group", "heisenberg", "--radius", "4",
                "--c", "2", "--levels", "3", "--seed", "0",
                "--out", "cfg.json"]) == 0
    calls = watch_fitting_pairs(monkeypatch)
    assert run(["verify", "distinct", "--config", "cfg.json", "--c", "2",
                "--levels", "3"]) == 0
    assert calls == [build_t_sets(parse_group_spec("heisenberg"), 2, 3)]
    capsys.readouterr()


def test_color_squarefree_enumerates_its_paths_once(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    searches = []
    enumerate_odd_paths = aperiodic.enumerate_odd_paths
    monkeypatch.setattr(aperiodic, "enumerate_odd_paths", lambda *args, **kw: (
        searches.append(args[1]) or enumerate_odd_paths(*args, **kw)))
    assert run(["color", "squarefree", "--group", "free:2", "--radius", "2",
                "--alphabet", "16", "--maxlen", "2", "--seed", "3"]) == 0
    assert searches == [2]
    capsys.readouterr()


def test_color_squarefree_paths_are_bounded_by_cap_alone(tmp_path,
                                                         monkeypatch, capsys):
    # free:2, R = 2 has 52 odd paths of length <= 3, far above a default
    # budget of 5: only --cap may bound the one enumeration.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(aperiodic.enumerate_odd_paths, "__defaults__", (5,))
    assert run(["color", "squarefree", "--group", "free:2", "--radius", "2",
                "--alphabet", "16", "--maxlen", "2", "--seed", "3",
                "--cap", "1000000"]) == 0
    assert "square none" in capsys.readouterr().err


def test_color_squarefree_manifest_records_both_caps(tmp_path, capsys):
    # --cap bounds the odd-path enumeration as well as the resampler.
    out = tmp_path / "sf.json"
    assert run(["color", "squarefree", "--group", "free:2", "--radius", "2",
                "--alphabet", "16", "--maxlen", "2", "--seed", "3",
                "--cap", "5000", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "sf.json.manifest.json").read_text())
    assert manifest["caps"] == {"paths": 5000, "resample": 5000}
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["build-forest"], ["fill", "--alpha", "1/2", "--out", "x.json"]])
def test_forest_levels_are_checked_before_the_window_search(monkeypatch,
                                                            capsys, command):
    # B(1, 2000) in z^2 exceeds the ball cap, which would exit 3.
    searches = []
    monkeypatch.setattr(GroupModel, "ball",
                        lambda self, **kwargs: searches.append(kwargs))
    assert run(["density", *command, "--group", "z^2", "--radius", "2000",
                "--levels", "0"]) == 2
    assert searches == []
    assert "need at least one level" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fill", "--group", "z^2", "--radius", "1000", "--levels", "2",
      "--alpha", "bogus", "--out", "x.json"], "malformed slope"),
    (["verify", "--config", "missing.json", "--levels", "2",
      "--alpha", "bogus"], "malformed slope"),
    (["measure", "--config", "missing.json", "--balls", "1..3",
      "--alpha", "bogus"], "malformed slope"),
    (["measure", "--config", "missing.json", "--balls", "1..x"],
     "malformed radius list"),
])
def test_density_options_are_parsed_before_the_window(tmp_path, monkeypatch,
                                                       capsys, argv, message):
    # B(1, 1000) in z^2 exceeds the ball cap: its search took about 5 s
    # to exit 3 before the slope was read.  No window file is read either.
    monkeypatch.chdir(tmp_path)
    assert run(["density", *argv]) == 2
    assert message in capsys.readouterr().err


def test_density_verify_checks_levels_before_the_window(tmp_path,
                                                        monkeypatch, capsys):
    # Like density fill: the level count is refused before the window file
    # is read, so a missing file is not what the message names.
    monkeypatch.chdir(tmp_path)
    assert run(["density", "verify", "--config", "missing.json",
                "--levels", "0", "--alpha", "1/2"]) == 2
    err = capsys.readouterr().err
    assert "need at least one level" in err and "missing.json" not in err


# SHA-256 of ``--help`` at COLUMNS=80 for every parser level: the parser
# must not depend on the modules that the handlers import when they run.
HELP_SHA256 = {
    "": "3fa090fa3ec8fc9061b0a616860d5a7609b1321fb6cf54e676afa99d4e61b8da",
    "group":
        "8f92a14958554f1bafde0aecc936bd8e2425106f22ea2a0500bd4516844a10e8",
    "group ball":
        "89db2dbd41017da97ed129fdbe69cc0946665a135f77ecd2d33102b5db9beb04",
    "group canon":
        "d5d90f1d67708efda9999b930d80b7c8ef68486aaef7fe58c3ae734bb48a5f46",
    "lll": "f64bb39e270daddf169f78f62fa3eaab8779f5ef589cd01fb8a2df2fd1f9a4c1",
    "lll check-constant":
        "99396f98d7b730c892e43cffed84ca9099b6cf391b86e11d46b584dcf9e7d7f9",
    "lll alphabet-bound":
        "f740f6c18841304f65ca7ba446063bc2542a11beb9b71fe1b93d52b94ff5bc66",
    "lll verify":
        "f456891f79bbad9791a45d291c4e0fd5b517210999fc872871480194e94502df",
    "color":
        "41c66b9e92fb600f6f8956e92f3ffeac47b85938ba5f0fb557e389d57c0edb69",
    "color two":
        "f046835fec76757ffd68cb871de2aa05bfe648f18387c11ea8bcc6506803fd62",
    "color squarefree":
        "acef6102115a6071cf6324dd7e56f6eecbdd5c9b817442efd85b518fabb47147",
    "verify":
        "f431647daa3fdd57bd611414032373cd70b087f4ad769f7fbc11a5923735d2ea",
    "verify distinct":
        "05ec049ca22ffba0024ed29c4f32c6f41c49fe8ce3820b0d04c3d197e84056e0",
    "witness":
        "febe584a57a9d841205a402343f6fbb06ef2defa89c4971aedfc3c821c22c413",
    "density":
        "e1913ba7e039a6bd857f1e1e4c2798166751f276bd4315f8c9d2eac473498b75",
    "density build-forest":
        "c33cc445f5ce68d2913d488df21fbc96d78445ca435a6b5134d7b83b5d018d38",
    "density fill":
        "b33502a657bf930872687493feefc2efcbb1fa024c4cbd988ed78ae55eaec060",
    "density verify":
        "be9dd3d5a51a87abd91ba900daca495a8ace4c8904158b59ab95e4c919aabf86",
    "density measure":
        "9f3308d14a18b1e6be541e2222884eacde3d3ddddcbd18874d36c855407f7ef9",
}


def test_help_of_every_parser_level_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for level in HELP_SHA256:
        assert run([*level.split(), "--help"]) == 0
        digests[level] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert digests == HELP_SHA256


# --- CLI fuzz -------------------------------------------------------------

GROUP_SPECS = ["z", "z^2", "free:2", "z2*z3", "heisenberg", "so3", "free:x"]
BASE_INSTANCE = {"variables": ONE_VARIABLE, "events": [FAIR_EVENT]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
small_ints = st.integers(-1, 3).map(str)
words = st.text(alphabet="xyzab1^-' ", max_size=5)
alphas = st.sampled_from(["0", "1", "1/2", "2/5", "0.3", "3/2", "x", "1/0"])


def json_file(base):
    """Text of a JSON file: ``base``, ``base`` with one key replaced or
    dropped, arbitrary JSON, or text that is not JSON."""
    def change(args):
        key, value, drop = args
        doc = dict(base)
        if drop:
            doc.pop(key)
        else:
            doc[key] = value
        return doc

    variants = st.tuples(st.sampled_from(sorted(base)), json_values,
                         st.booleans()).map(change)
    documents = st.one_of(st.just(base), variants, json_values)
    return documents.map(json.dumps) | st.text(max_size=12)


def flags(*pairs):
    """argv for ``--name value`` pairs; a None value drops the flag."""
    values = st.tuples(*(v for _, v in pairs))
    return values.map(lambda vs: [x for (n, _), v in zip(pairs, vs)
                                  if v is not None for x in (f"--{n}", v)])


group = st.sampled_from(GROUP_SPECS)
maybe_out = st.sampled_from([None, "{out}"])
no_files = st.just({})
window_files = json_file(BASE_WINDOW).map(lambda t: {"config": t})
COMMANDS = [
    (["group", "ball"], flags(("group", group), ("radius", small_ints),
                              ("center", words),
                              ("cap", st.integers(1, 50).map(str)),
                              ("out", maybe_out)), no_files),
    (["group", "canon"], flags(("group", group), ("word", words)), no_files),
    (["lll", "check-constant"],
     flags(("cmax", st.integers(-1, 20).map(str))), no_files),
    (["lll", "alphabet-bound"], flags(("s", small_ints)), no_files),
    (["lll", "verify"], flags(("instance", st.just("{instance}")),
                              ("out", maybe_out)),
     json_file(BASE_INSTANCE).map(lambda t: {"instance": t})),
    (["color", "two"],
     flags(("group", group), ("radius", small_ints),
           ("c", st.integers(-1, 17).map(str)), ("levels", small_ints),
           ("cap", st.integers(0, 50).map(str)), ("out", st.just("{out}"))),
     no_files),
    (["color", "squarefree"],
     flags(("group", group), ("radius", small_ints),
           ("alphabet", st.sampled_from(["-1", "1", "4", str(2 ** 21)])),
           ("maxlen", st.integers(-1, 2).map(str)),
           ("cap", st.integers(0, 50).map(str)), ("out", maybe_out)),
     no_files),
    (["verify", "distinct"],
     flags(("config", st.just("{config}")), ("levels", small_ints),
           ("c", st.integers(-1, 3).map(str))), window_files),
    (["witness"], flags(("group", group), ("word", words),
                        ("out", maybe_out)), no_files),
    (["density", "build-forest"],
     flags(("group", group), ("radius", small_ints), ("levels", small_ints),
           ("format", st.sampled_from(["json", "dot", "svg"])),
           ("out", maybe_out)), no_files),
    (["density", "fill"],
     flags(("group", group), ("radius", small_ints), ("levels", small_ints),
           ("alpha", alphas),
           ("format", st.sampled_from(["json", "csv", "pgm"])),
           ("out", st.just("{out}"))), no_files),
    (["density", "verify"],
     flags(("config", st.just("{config}")), ("levels", small_ints),
           ("alpha", alphas)), window_files),
    (["density", "measure"],
     flags(("config", st.just("{config}")),
           ("balls", st.sampled_from(["1..2", "0,1", "2..1", "1..x", "5"])),
           ("alpha", st.sampled_from([None, "1/2", "2"])),
           ("out", maybe_out)), window_files),
]
cli_calls = st.one_of(*(
    st.tuples(st.just(head), tail, files) for head, tail, files in COMMANDS
)).map(lambda c: (c[0] + c[1], c[2]))


@settings(max_examples=150, deadline=None)
@given(cli_calls)
def test_fuzzed_subcommands_keep_the_exit_code_contract(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out")}
        for name, text in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run([a.format(**paths) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
