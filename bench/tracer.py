"""Traced replay of one benchmark job inside a single process.

Usage: python bench/tracer.py SPEC_JSON OUT_JSON

SPEC_JSON holds ``{"job": id, "steps": [[cli argument, ...], ...]}``; the
working directory is the job's directory.  Every step runs through
``groupshift.cli.dispatch`` after the public functions of each module have
been wrapped from this file, so nothing under ``src/`` changes.  OUT_JSON
receives the exit codes, the spans and the per-layer figures of the job.

A span is ``[name, start, end, parent index or None, job id]``.  A span's
self time is its duration minus the durations of its direct children.
Hot primitives (``groups.mul``, ``Quad`` products and sign tests,
``convex_enumeration``) are only counted, so their time stays in their
caller's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import sys
import time
from collections import Counter

from groupshift import aperiodic, cli, density, exact, groups, lll, patterns, serialize


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.spans: list = []
        self.open: list = []
        self.counts: Counter = Counter()

    def span(self, name, fn, counters=()):
        """Wrap fn so each call records a span; counters are (quantity,
        measure(result, *args)) pairs summed into ``name.quantity``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.open[-1] if self.open else None,
                   self.job]
            self.open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.open.pop()
            for quantity, measure in counters:
                self.counts[f"{name}.{quantity}"] += measure(result, *args)
            return result

        return wrapped

    def count(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def metrics(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = dict(self.counts)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start - child
        # cli.dispatch.s is the whole dispatch time; its self time is
        # reported as cli.self_s.
        out["cli.self_s"] = out.pop("cli.dispatch.s", 0.0)
        out["cli.dispatch.s"] = sum(end - start for name, start, end, _, _
                                    in self.spans if name == "cli.dispatch")
        evals = out.get("lll.resample.predicate_evals", 0)
        if evals:
            out["lll.resample.useful_ratio"] = (
                out.get("lll.resample.resamples", 0) / evals)
        return out


def _one(result, *args):
    return 1


def install(t: Tracer):
    """Wrap the module attributes and methods that the CLI calls through."""
    size = ("events", lambda inst, *a: len(inst.events))
    plain = {
        aperiodic: ["build_t_sets", "find_vertex_square", "witness_path"],
        density: ["fill_density", "build_forest", "ball_sequence",
                  "measure_density"],
        serialize: ["verdict_to_json", "window_to_json", "window_from_json",
                    "instance_to_json", "instance_from_json", "dumps",
                    "write_manifest"],
    }
    for module, names in plain.items():
        short = module.__name__.rsplit(".", 1)[1]
        for attr in names:
            setattr(module, attr,
                    t.span(f"{short}.{attr}", getattr(module, attr)))

    for attr in ("build_2coloring_instance", "build_squarefree_instance"):
        setattr(aperiodic, attr, t.span(f"aperiodic.{attr}",
                                        getattr(aperiodic, attr), [size]))
    aperiodic.verify_distinct_neighborhood = t.span(
        "aperiodic.verify_distinct_neighborhood",
        aperiodic.verify_distinct_neighborhood,
        [("checked", lambda report, *a: report.checked)])
    density.verify_condition1 = t.span(
        "density.verify_condition1", density.verify_condition1,
        [("clusters", lambda report, *a: len(report.clusters))])
    density.convex_enumeration = t.count("density.convex_enumeration",
                                         density.convex_enumeration)

    sign = exact.Quad.sign  # unwrapped, so the margin scan is not counted
    lll.verify_condition = t.span(
        "lll.verify_condition", lll.verify_condition,
        [("events", lambda verdict, inst: len(inst.events)),
         ("negative_margins", lambda verdict, inst: sum(
             1 for m in verdict.margins.values() if sign(m) < 0))])
    resample = t.span("lll.resample", lll.resample,
                      [("resamples", lambda run, *a: run.resamples)])

    def counted(violated):
        def predicate(assignment):
            t.counts["lll.resample.predicate_evals"] += 1
            return violated(assignment)
        return predicate

    @functools.wraps(lll.resample)
    def traced_resample(inst, *args, **kwargs):
        copy = dataclasses.replace(inst, events=[
            dataclasses.replace(e, violated=counted(e.violated))
            for e in inst.events])
        return resample(copy, *args, **kwargs)

    lll.resample = traced_resample

    groups.GroupModel.ball = t.span(
        "groups.ball", groups.GroupModel.ball,
        [("members", lambda ball, *a: len(ball))])
    for cls in (groups.IntegerLattice, groups.FreeGroup,
                groups.FreeProductZ2Z3, groups.DiscreteHeisenberg):
        cls.mul = t.count("groups.mul", cls.mul)
        cls.length = t.span("groups.length", cls.length, [("calls", _one)])
    patterns.WindowConfig.__post_init__ = t.span(
        "patterns.WindowConfig", patterns.WindowConfig.__post_init__)
    exact.Quad.__mul__ = exact.Quad.__rmul__ = t.count(
        "exact.quad_mul", exact.Quad.__mul__)
    exact.Quad.sign = t.count("exact.quad_sign", exact.Quad.sign)
    cli.dispatch = t.span("cli.dispatch", cli.dispatch)


def replay(spec: dict) -> dict:
    t = Tracer(spec["job"])
    install(t)
    codes = []
    for argv in spec["steps"]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(cli.dispatch(argv))
    return {"exit_codes": codes, "spans": t.spans, "metrics": t.metrics()}


if __name__ == "__main__":
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path) as fh:
        job_spec = json.load(fh)
    with open(out_path, "w") as fh:
        json.dump(replay(job_spec), fh)
