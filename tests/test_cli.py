import contextlib
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
from hypothesis import given, settings, strategies as st

import groupshift
from groupshift import cli, serialize
from groupshift.aperiodic import build_2coloring_instance, build_t_sets
from groupshift.density import build_forest
from groupshift.groups import GroupModel, IntegerLattice, parse_group_spec
from groupshift.lll import verify_condition
from groupshift.patterns import WindowConfig


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


def write_constant_config(path, radius=6, symbol=0):
    z2 = IntegerLattice(2)
    window = z2.ball(radius=radius)
    x = WindowConfig(group=z2, window=window, colors=(symbol,) * len(window),
                     alphabet_size=2)
    path.write_text(serialize.dumps(serialize.window_to_json(x)))


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
        inst = build_2coloring_instance(z2, z2.ball(radius=8), tsets, n_max=1)
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

    def test_out_of_memory_exits_3(self):
        # The geodesic x^1000000000 needs ~8 GB; the child limits its own
        # address space to 2 GB, so building it raises MemoryError.
        proc = run_capped(["witness", "--group", "z^2",
                           "--word", "x^1000000000"], limit=2 << 30)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: resource:")
        assert "Traceback" not in proc.stderr

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


# An all-zero window of radius 1 on z^2.
BASE_WINDOW = {"group": "z^2", "radius": 1, "alphabet_size": 2,
               "cells": [[w, 0] for w in ("", "x", "x^-1", "y", "y^-1")]}


# Each argv exits 2 (input error); "{name}" fields name files the test
# writes: a missing path, non-JSON text, JSON without cells, JSON with a
# non-string group, a valid window configuration, and seven copies of
# BASE_WINDOW that are wrong in one way each: radius ``true``, one
# more cell outside the ball, the cell "x" listed again as "x y y^-1",
# the cell "y^-1" left out, the symbol 0.5 or ``true`` at the identity,
# and alphabet size 2.5.  "{config.parent}" is a directory, so it cannot
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
}


CAPPED = {"density-measure-huge-range"}


@pytest.mark.parametrize("case, argv", list(MALFORMED_INPUTS.items()),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case, argv):
    files = {name: tmp_path / f"{name}.json"
             for name in ("missing", "text", "nocells", "intgroup", "config",
                          "out", "boolradius", "offwindow", "twospellings",
                          "missingcell", "halfsymbol", "boolsymbol",
                          "halfalphabet")}
    files["text"].write_text("not json {")
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
                         ("halfalphabet", {"alphabet_size": 2.5})):
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
    **{f"alphabet-{k}": {"variables": [{"id": "v0", "alphabet": k}],
                         "events": [FAIR_EVENT]}
       for k in ("x", -3, 0, True)},
}


@pytest.mark.parametrize("instance", list(BAD_INSTANCES.values()),
                         ids=list(BAD_INSTANCES))
def test_invalid_instance_exits_2(tmp_path, capsys, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"variables": ONE_VARIABLE, **instance}))
    assert run(["lll", "verify", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: input" in err
    assert "Traceback" not in err


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
    assert {name: serialize.sha256_file(tmp_path / name)
            for name in GOLDEN_SHA256} == GOLDEN_SHA256


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
    assert [{name: serialize.sha256_file(tmp_path / name) for name in digests}
            for _, digests in GOLDEN_RUNS] == [
                digests for _, digests in GOLDEN_RUNS]


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
