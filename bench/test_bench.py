"""Self-tests of the benchmark harness, at toy sizes.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TOY = {
    "two_z2": {"radius": 6},
    "resample_z2": {"radius": 6},
    "fill_z2": {"radius": 8},
    "paths_nonabelian": {"radius": 3, "power": 3},
}

# Per-layer metrics each workload must move (USED) or leave at zero (IDLE),
# as the workload table in bench/README.md claims.
USED = {
    "two_z2": ["lll.verify_condition.s", "exact.quad_mul.calls",
               "serialize.verdict_to_json.s", "serialize.instance_from_json.s",
               "aperiodic.build_2coloring_instance.events"],
    "resample_z2": ["lll.resample.resamples", "lll.resample.useful_ratio",
                    "aperiodic.verify_distinct_neighborhood.checked"],
    "fill_z2": ["density.fill_density.s", "density.convex_enumeration.calls",
                "density.verify_condition1.clusters",
                "density.measure_density.s", "serialize.window_from_json.s"],
    "paths_nonabelian": ["aperiodic.build_squarefree_instance.events",
                         "aperiodic.find_vertex_square.s",
                         "aperiodic.witness_path.s", "groups.length.calls"],
}
IDLE = {
    "two_z2": ["lll.resample.resamples", "density.fill_density.s"],
    "resample_z2": ["lll.verify_condition.s", "exact.quad_mul.calls"],
    "fill_z2": ["lll.verify_condition.s", "lll.resample.s",
                "exact.quad_mul.calls"],
    "paths_nonabelian": ["lll.verify_condition.s", "density.fill_density.s"],
}

COUNTERS = ["groups.mul.calls", "exact.quad_mul.calls", "exact.quad_sign.calls",
            "lll.resample.resamples", "lll.resample.predicate_evals",
            "lll.resample.useful_ratio", "density.convex_enumeration.calls"]


def toy_run(tmp_path, name, trace, seed=3):
    return run.measure(run.WORKLOADS[name], seed, 0, trace, tmp_path,
                       sizes=TOY[name])


def deadline():
    return time.monotonic() + 60


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_emits_every_metric(tmp_path, name, trace):
    record = toy_run(tmp_path, name, trace)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert all(values[m] > 0 for m in USED[name])
        assert all(values[m] == 0 for m in IDLE[name])
    else:
        assert all(v > 0 for v in values.values())
        assert all(j["wall_rel"] > 0 and j["cpu_rel"] > 0
                   for j in record["jobs"])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_inputs_and_counters(tmp_path, name):
    first = toy_run(tmp_path, name, True)
    second = toy_run(tmp_path, name, True)
    assert first["inputs"] == second["inputs"]
    for metric in COUNTERS:
        assert first["result"]["metrics"][metric] == \
            second["result"]["metrics"][metric], metric


def test_wrong_reference_hash_is_a_failed_job(tmp_path):
    steps = run.job_inputs(run.WORKLOADS["two_z2"], 0, 0, radius=6)
    good = run.run_job(steps, ("cfg.json",), tmp_path / "a", deadline())
    assert good.ok
    wrong = {"cfg.json": "0" * 64}
    job = run.run_job(steps, ("cfg.json",), tmp_path / "b", deadline(),
                      reference=wrong)
    assert not job.ok and "hashes" in job.failure


def test_corrupted_artifact_is_a_failed_job(tmp_path):
    steps = run.job_inputs(run.WORKLOADS["two_z2"], 0, 0, radius=6)
    assert run.run_job(steps[:1], ("cfg.json",), tmp_path / "a",
                       deadline()).ok
    corrupt = tmp_path / "corrupt.json"
    text = (tmp_path / "a" / "cfg.json").read_text()
    corrupt.write_text(text[: len(text) // 2])
    job = run.run_job([["verify", "distinct", "--config", str(corrupt),
                        "--levels", "2", "--c", "17"]], (), tmp_path / "b",
                      deadline())
    assert not job.ok and "exited" in job.failure


def test_failures_are_counted_not_raised(tmp_path):
    broken = run.Workload("broken", run.two_z2, ("not-written.json",), "")
    record = run.measure(broken, 0, 0, False, tmp_path, sizes={"radius": 6})
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == len(record["jobs"]) == 2
    assert record["fail_ratio"] == 1.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "two_z2", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
