"""groupshift benchmark: CLI pipelines timed end to end, traced per layer.

Run every workload, untraced and traced, and print every metric:

    python3 bench/run.py

Run one workload; the last line of standard output is the JSON result:

    python3 bench/run.py --workload two_z2 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` each job is a chain of fresh ``python -m groupshift.cli``
processes, run one at a time (a closed loop with one client), and the
result holds the end-to-end metrics.  Job times are reported in units of
a fixed stdlib reference loop, timed on the same CPU before and after each
step, because the speed of a shared host drifts by a quarter within
minutes.  With ``--trace 1`` the same chain is replayed inside one process
through ``cli.dispatch`` with every layer wrapped by ``bench/tracer.py``,
and the result holds the per-layer metrics.
Results and spans are written under ``.bench_out/`` in the checkout.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: A run is cut off (children killed, remaining jobs skipped) this long
#: after it starts, so it always exits well inside three minutes.
HARD_LIMIT_S = 150.0
#: No-work CLI launches at the start of an untraced run.
SETUP_LAUNCHES = 5
SETUP_ARGS = ["lll", "alphabet-bound", "--s", "2"]
SETUP_OUTPUT = "2097152"


# --- workloads -------------------------------------------------------------

def two_z2(rng: random.Random, radius: int = 22) -> list:
    seed = str(rng.randrange(2 ** 31))
    return [
        ["color", "two", "--group", "z^2", "--radius", str(radius),
         "--c", "17", "--levels", "2", "--seed", seed,
         "--out", "cfg.json", "--instance-out", "inst.json"],
        ["lll", "verify", "--instance", "inst.json", "--out", "verdict.json"],
        ["verify", "distinct", "--config", "cfg.json", "--levels", "2",
         "--c", "17"],
    ]


def resample_z2(rng: random.Random, radius: int = 27) -> list:
    seed = str(rng.randrange(2 ** 31))
    return [
        ["color", "two", "--group", "z^2", "--radius", str(radius),
         "--c", "2", "--levels", "2", "--seed", seed, "--out", "cfg.json"],
        ["verify", "distinct", "--config", "cfg.json", "--levels", "2",
         "--c", "2"],
    ]


def fill_z2(rng: random.Random, radius: int = 35) -> list:
    alpha = rng.choice(["377/610", "233/377", "610/987"])
    return [
        ["density", "fill", "--group", "z^2", "--radius", str(radius),
         "--levels", "2", "--alpha", alpha, "--out", "dens.json"],
        ["density", "verify", "--config", "dens.json", "--levels", "2",
         "--alpha", alpha],
        ["density", "measure", "--config", "dens.json",
         "--balls", f"1..{radius}", "--alpha", alpha, "--out", "report.json"],
    ]


def paths_nonabelian(rng: random.Random, radius: int = 6,
                     power: int = 40) -> list:
    seed = str(rng.randrange(2 ** 31))
    return [
        ["color", "squarefree", "--group", "free:2", "--radius", str(radius),
         "--alphabet", "16", "--maxlen", "3", "--seed", seed,
         "--out", "sf.json"],
        ["witness", "--group", "heisenberg", "--word", f"z^{power}",
         "--out", "witness.dot"],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: object       # (rng, **sizes) -> list of CLI argument lists
    artifacts: tuple    # files whose SHA-256 is checked; never manifests
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("two_z2", two_z2, ("cfg.json", "inst.json", "verdict.json"),
             "exact Q(sqrt2) margins in lll.verify_condition and the verdict "
             "JSON; C = 17 makes zero resamples, so it bypasses the "
             "resampler"),
    Workload("resample_z2", resample_z2, ("cfg.json",),
             "C = 2 is below the admissible constant, so lll.resample does "
             "the work and verify_condition never runs"),
    Workload("fill_z2", fill_z2, ("dens.json", "report.json"),
             "covering forest and quadratic Sturmian fill, one window "
             "written then read back twice; lll and exact sit idle"),
    Workload("paths_nonabelian", paths_nonabelian, ("sf.json", "witness.dot"),
             "odd-path enumeration on free:2 and the Heisenberg word-length "
             "BFS; the only non-abelian groups"),
]}

END_TO_END = [("job_rel", "ref"), ("cpu_rel", "ref"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

PER_LAYER = [(name, "s" if name.endswith((".s", "_s")) else
              "ratio" if name.endswith("ratio") else "count")
             for name in [
    "lll.verify_condition.s", "lll.verify_condition.events",
    "lll.verify_condition.negative_margins",
    "exact.quad_mul.calls", "exact.quad_sign.calls",
    "serialize.verdict_to_json.s",
    "lll.resample.s", "lll.resample.resamples",
    "lll.resample.predicate_evals", "lll.resample.useful_ratio",
    "density.fill_density.s", "density.convex_enumeration.calls",
    "density.build_forest.s", "density.verify_condition1.s",
    "density.verify_condition1.clusters", "density.ball_sequence.s",
    "density.measure_density.s",
    "aperiodic.build_t_sets.s", "aperiodic.build_2coloring_instance.s",
    "aperiodic.build_2coloring_instance.events",
    "aperiodic.verify_distinct_neighborhood.s",
    "aperiodic.verify_distinct_neighborhood.checked",
    "groups.mul.calls", "groups.ball.s", "groups.ball.members",
    "aperiodic.build_squarefree_instance.s",
    "aperiodic.build_squarefree_instance.events",
    "aperiodic.find_vertex_square.s", "aperiodic.witness_path.s",
    "groups.length.calls", "groups.length.s",
    "serialize.window_to_json.s", "serialize.window_from_json.s",
    "serialize.instance_to_json.s", "serialize.instance_from_json.s",
    "serialize.dumps.s", "serialize.write_manifest.s",
    "patterns.WindowConfig.s",
    "cli.dispatch.s", "cli.self_s",
]]


# --- the reference loop --------------------------------------------------

class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y


def reference_loop(rounds: int = 30) -> int:
    """Fixed pure-Python work, independent of groupshift: integer
    arithmetic, a bounded dict, small objects and short sorts.  It takes
    about 0.12 s on a 2.1 GHz Xeon and holds well under 1 MB, so it adds
    nothing to a child's ``ru_maxrss``."""
    total = 0
    for r in range(rounds):
        table: dict = {}
        for i in range(2000):
            cell = _Cell((i * 7919 + r) % 1009, i & 255)
            key = (cell.x, cell.y & 7)
            table[key] = table.get((cell.x - 1, cell.y & 7), 0) + cell.y
            total += (i * i) % 7
        total += sum(v for _, v in sorted(table.items())[:64])
    return total


REFERENCE_TOTAL = reference_loop()
#: Median wall time of reference_loop() on the machine the baseline was
#: taken on (2-vCPU 2.1 GHz Xeon, Python 3.11.7).  setup_s is a launch's
#: time in reference-loop units, converted to seconds at this speed.
REFERENCE_S = 0.12


def reference_time() -> tuple:
    """Wall and CPU seconds of one reference loop in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    if reference_loop() != REFERENCE_TOTAL:
        raise AssertionError("reference loop gave a different result")
    return time.perf_counter() - wall, time.process_time() - cpu


def pin_to_one_cpu() -> None:
    """Keep the harness and every child on one CPU, so that the reference
    loop runs where the jobs run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# --- running one job -------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in ("PYTHONDEVMODE", "PYTHONTRACEMALLOC", "PYTHONOPTIMIZE"):
        env.pop(name, None)
    return env


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def launch(argv: list, cwd: Path, deadline: float, log: Path) -> Launch:
    """Run one child to completion; rusage comes from os.wait4.

    The child is killed if it is still running at ``deadline``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss)


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "groupshift.cli", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Job:
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    wall_rel: float = 0.0
    cpu_rel: float = 0.0
    ref_wall_s: float = 0.0
    hashes: dict = field(default_factory=dict)
    failure: str = ""
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failure


def check_outputs(job: Job, codes: list, jobdir: Path, artifacts: tuple,
                  reference) -> None:
    """Exit codes, artifact presence and hashes against the reference."""
    bad = [i for i, code in enumerate(codes) if code != 0]
    if bad:
        job.failure = f"step {bad[0]} exited {codes[bad[0]]}"
        return
    for name in artifacts:
        path = jobdir / name
        if not path.is_file():
            job.failure = f"missing artifact {name}"
            return
        job.hashes[name] = sha256(path)
    if reference is not None and job.hashes != reference:
        job.failure = "artifact hashes differ from the reference"


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_job(steps: list, artifacts: tuple, jobdir: Path, deadline: float,
            reference=None) -> Job:
    """Untraced job: each step is a fresh CLI process, one at a time.

    The reference loop is timed before the first step and after every
    step.  Each step's time is divided by the mean of the two reference
    times around it; ``wall_rel`` and ``cpu_rel`` are the sums over steps.
    """
    fresh_dir(jobdir)
    refs = [reference_time()]
    runs = []
    for i, args in enumerate(steps):
        runs.append(launch(cli_argv(args), jobdir, deadline,
                           jobdir / f"step{i}.log"))
        refs.append(reference_time())
        if runs[-1].code != 0:
            break
    around = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
              for a, b in zip(refs, refs[1:])]
    job = Job(wall_s=sum(r.wall_s for r in runs),
              cpu_s=sum(r.cpu_s for r in runs),
              peak_rss_mb=max(r.maxrss_kb for r in runs) / 1024,
              wall_rel=sum(r.wall_s / w for r, (w, _) in zip(runs, around)),
              cpu_rel=sum(r.cpu_s / c for r, (_, c) in zip(runs, around)),
              ref_wall_s=statistics.mean(w for w, _ in around))
    check_outputs(job, [r.code for r in runs], jobdir, artifacts, reference)
    return job


def run_traced(steps: list, artifacts: tuple, jobdir: Path, deadline: float,
               job_id: int, reference=None) -> Job:
    """Traced job: all steps replayed in one process by bench/tracer.py."""
    fresh_dir(jobdir)
    spec, out = jobdir / "trace-spec.json", jobdir / "trace-out.json"
    spec.write_text(json.dumps({"job": job_id, "steps": steps}))
    run = launch([sys.executable, str(TRACER), spec.name, out.name],
                 jobdir, deadline, jobdir / "tracer.log")
    job = Job(wall_s=run.wall_s, cpu_s=run.cpu_s,
              peak_rss_mb=run.maxrss_kb / 1024)
    if run.code != 0 or not out.is_file():
        job.failure = f"tracer exited {run.code}"
        return job
    traced = json.loads(out.read_text())
    job.metrics, job.spans = traced["metrics"], traced["spans"]
    check_outputs(job, traced["exit_codes"], jobdir, artifacts, reference)
    return job


# --- one run of one workload ----------------------------------------------

def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu}


def setup_launch(work: Path, deadline: float) -> tuple:
    """One no-work CLI launch and its wall time in reference-loop units,
    from the loop timed just before and just after it; code 1 if it
    printed the wrong answer."""
    log = work / "setup.log"
    before = reference_time()[0]
    run = launch(cli_argv(SETUP_ARGS), work, deadline, log)
    after = reference_time()[0]
    if run.code == 0 and log.read_text().strip() != SETUP_OUTPUT:
        run.code = 1
    return run, run.wall_s / ((before + after) / 2)


def job_inputs(workload: Workload, seed: int, index: int, **sizes) -> list:
    """The CLI steps of input set ``index``; fixed by the seed alone."""
    return workload.steps(random.Random(f"{workload.name}/{seed}/{index}"),
                          **sizes)


def repeat(body, seconds: float, deadline: float) -> None:
    """Call body at least once; call it again only while a call as long as
    the last one would end within ``seconds`` of the start and before
    ``deadline``."""
    start = time.monotonic()
    while True:
        began = time.monotonic()
        body()
        now = time.monotonic()
        last = now - began
        if now + last > min(start + seconds, deadline):
            return


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, sizes=None) -> dict:
    """One benchmark run; returns the full record, result line included.

    Untraced: jobs come in pairs on fresh inputs from the seed; the second
    job of a pair must reproduce the first one's artifacts byte for byte.
    A no-work launch precedes each pair, after SETUP_LAUNCHES at the start;
    setup_s is their median in reference-loop units times REFERENCE_S;
    the raw median is kept as setup_raw_s.  job_rel and cpu_rel are
    medians over jobs of the job's time in reference-loop units (see
    run_job).  Traced: one untraced job on input set 0 is the reference for
    the traced replays of the same inputs.
    """
    sizes = sizes or {}
    deadline = time.monotonic() + HARD_LIMIT_S
    jobs: list[Job] = []
    inputs: list = []
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine()}

    if not trace:
        setup = [setup_launch(work, deadline) for _ in range(SETUP_LAUNCHES)]

        def pair():
            setup.append(setup_launch(work, deadline))
            steps = job_inputs(workload, seed, len(inputs), **sizes)
            inputs.append(steps)
            first = run_job(steps, workload.artifacts, work / "job", deadline)
            jobs.append(first)
            jobs.append(run_job(steps, workload.artifacts, work / "job",
                                deadline, reference=first.hashes))

        repeat(pair, seconds, deadline)
        metrics = {
            "job_rel": statistics.median(j.wall_rel for j in jobs),
            "cpu_rel": statistics.median(j.cpu_rel for j in jobs),
            "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
            "setup_s": REFERENCE_S * statistics.median(
                rel for _, rel in setup),
        }
        units = dict(END_TO_END)
        failed = sum(not j.ok for j in jobs) + sum(r.code != 0
                                                    for r, _ in setup)
        attempted = len(jobs) + len(setup)
        record["setup_s_samples"] = [r.wall_s for r, _ in setup]
        record["setup_raw_s"] = statistics.median(r.wall_s for r, _ in setup)
        record["job_s"] = statistics.median(j.wall_s for j in jobs)
        record["cpu_s"] = statistics.median(j.cpu_s for j in jobs)
        record["reference_s"] = statistics.median(j.ref_wall_s for j in jobs)
    else:
        inputs.append(job_inputs(workload, seed, 0, **sizes))
        reference = run_job(inputs[0], workload.artifacts, work / "job",
                            deadline)
        repeat(lambda: jobs.append(run_traced(
            inputs[0], workload.artifacts, work / "job", deadline, len(jobs),
            reference=reference.hashes)), seconds, deadline)
        traced = [j.metrics for j in jobs if j.metrics] or [{}]
        metrics = {name: statistics.median(m.get(name, 0) for m in traced)
                   for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        record["untraced_job_s"] = reference.wall_s
        record["traced_job_s"] = statistics.median(j.wall_s for j in jobs)
        record["trace_overhead_s"] = (record["traced_job_s"]
                                      - reference.wall_s)
        record["spans"] = [s for j in jobs for s in j.spans]
        jobs.insert(0, reference)
        failed = sum(not j.ok for j in jobs)
        attempted = len(jobs)

    record["inputs"] = inputs
    record["harness_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    record["jobs"] = [{"wall_s": j.wall_s, "cpu_s": j.cpu_s,
                       "wall_rel": j.wall_rel, "cpu_rel": j.cpu_rel,
                       "ref_wall_s": j.ref_wall_s,
                       "peak_rss_mb": j.peak_rss_mb, "hashes": j.hashes,
                       "failure": j.failure} for j in jobs]
    record["fail_ratio"] = sum(not j.ok for j in jobs) / len(jobs)
    record["result"] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return record


def save(record: dict) -> Path:
    """Write the record; spans go to a file of their own."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"],
             "spans": spans}))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def report(record: dict) -> None:
    m = record["machine"]
    result = record["result"]
    print(f"# {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {len(record['jobs'])} jobs, "
          f"fail_ratio {record['fail_ratio']:.3f}; nproc {m['nproc']}, "
          f"python {m['python']}, cpu {m['cpu']}")
    for name, metric in result["metrics"].items():
        print(f"#   {name} {metric['value']:.6g} {metric['unit']}")
    if "job_s" in record:
        print(f"#   raw job_s {record['job_s']:.3f} s, cpu_s "
              f"{record['cpu_s']:.3f} s, setup_s {record['setup_raw_s']:.4f} "
              f"s, reference loop {record['reference_s']:.4f} s")
    if "trace_overhead_s" in record:
        print(f"#   trace overhead {record['trace_overhead_s']:+.3f} s "
              f"(traced {record['traced_job_s']:.3f} s, "
              f"untraced {record['untraced_job_s']:.3f} s)")


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    work = OUT / f"work-{os.getpid()}"
    fresh_dir(work)
    try:
        record = measure(WORKLOADS[name], seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(record)
    save(record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: all, traced and not")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupshift" / "cli.py").is_file():
        print(f"error: no groupshift sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        record = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        print(json.dumps(record["result"]))
        return 0
    # Each run gets a process of its own: a child's ru_maxrss counts the
    # peak RSS of the process that spawned it, so the harness must stay
    # smaller than any job's processes (about 20 MB each).
    failed = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds),
                 "--trace", trace], stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            lines = proc.stdout.splitlines()
            failed += json.loads(lines[-1])["failed"] if lines else 1
    print(f"# all workloads: {failed} failed operations")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
