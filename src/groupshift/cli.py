"""Command-line interface.

Exit codes: 0 success, 1 verification failure (violations found),
2 usage error, 3 resource error.  All randomness flows through --seed
(default 0); identical command lines produce byte-identical artifacts.

Each handler imports the modules its subcommand runs, so a launch loads
only those: every command is a fresh process, and for a short one
start-up is most of its time.  ``aperiodic`` and ``serialize`` import
``lll`` and ``exact`` only inside the functions that build or read
events, so ``verify distinct`` and ``witness`` load no resampler.  The
records are plain classes, so only the launches that import ``lll``
(``color``, ``lll``) load ``dataclasses``, for ``BadEvent`` and
``LLLInstance``, which ``dataclasses.replace`` copies in the benchmark's
tracer.  ``fractions`` is loaded by ``density``, ``color`` and ``lll``
alone: ``group``, ``witness`` and ``verify distinct`` need no exact
numbers.
Handlers call through the module (``density.build_forest``), so a
function rebound on its module, as the benchmark's tracer does, is the
one that runs.
``main`` runs the command with the cyclic collector off, as what it
builds (a decoded file, an instance's events) holds no reference cycles,
then freezes every live object, so the collections at interpreter
shutdown walk none of them; ``dispatch``, which tests and the tracer
call in-process, leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .groups import (
    InputError,
    ResourceLimitError,
    format_word,
    parse_group_spec,
)

if TYPE_CHECKING:
    from . import density

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _write_artifacts(args, outputs: list, seed=None, caps=None):
    """Write each artifact of ``outputs`` ((path, text or a JSON value)
    pairs) plus one manifest for the first, with the digest of each as
    written; a path that cannot be written, or two that name one file, is
    an input error (exit 2)."""
    from . import serialize
    paths = [path for path, _ in outputs]
    named = {}
    for path in paths + [serialize.manifest_path(p) for p in paths[:1]]:
        real = os.path.realpath(path)
        if real in named:
            raise InputError(f"{named[real]} and {path} name the same file")
        named[real] = path
    digests = {}
    try:
        for path, artifact in outputs:
            digests[str(Path(path))] = serialize.write_artifact(path,
                                                                artifact)
        if digests:
            serialize.write_manifest(
                next(iter(digests)), argv=list(args._argv),
                seed=seed, caps=caps or {}, outputs=digests,
                duration=time.time() - args._started,
            )
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or path}: "
                         f"{exc.strerror}") from None


def _emit(args, artifact, caps=None) -> None:
    """Write ``artifact`` (text, or a JSON value) to --out with a manifest,
    else to ``sys.stdout`` as text, whatever file that is."""
    if args.out:
        _write_artifacts(args, [(args.out, artifact)], caps=caps)
    else:
        from . import serialize
        serialize.write(artifact, sys.stdout)


def _load(path: str, from_json):
    """Decode the JSON artifact at ``path`` with ``from_json``.

    A missing, unreadable, malformed or too deeply nested file is an input
    error (exit 2), never a traceback: exit 1 is reserved for verified
    violations.
    """
    try:
        return from_json(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"cannot load {path}: {exc}") from None


def _parse_radii(spec: str) -> range | list[int]:
    """``lo..hi`` as a range (never expanded), else a list of ints."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            radii = range(int(lo), int(hi) + 1)
        else:
            radii = [int(s) for s in spec.split(",")]
    except ValueError:
        raise InputError(f"malformed radius list {spec!r}") from None
    if not radii:
        raise InputError(f"radius list {spec!r} is empty")
    return radii


def cap(text: str) -> int:
    """A ``--cap`` value: a count of steps or elements, so never below 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap {value} is negative")
    return value


# --- subcommand handlers ------------------------------------------------

def cmd_group_ball(args) -> int:
    group = parse_group_spec(args.group)
    center = group.canonicalize(args.center)
    ball = group.ball(center=center, radius=args.radius, cap=args.cap)
    payload = {
        "group": group.spec,
        "center": group.element_word(center),
        "radius": args.radius,
        "size": len(ball),
        "members": [group.element_word(g) for g in ball.members],
    }
    _emit(args, payload, caps={"ball": args.cap})
    print(f"ball size {len(ball)}", file=sys.stderr)
    return EXIT_OK


def cmd_group_canon(args) -> int:
    group = parse_group_spec(args.group)
    g = group.canonicalize(args.word)
    print(group.element_word(g))
    return EXIT_OK


def cmd_lll_check_constant(args) -> int:
    from . import lll
    c = lll.aperiodic_constant_scan(args.cmax)
    print(c)
    return EXIT_OK


def cmd_lll_alphabet_bound(args) -> int:
    from . import lll
    print(lll.squarefree_alphabet_bound(args.s))
    return EXIT_OK


def cmd_lll_verify(args) -> int:
    from . import lll, serialize
    inst = _load(args.instance, serialize.instance_from_json)
    verdict = lll.verify_condition(inst)
    _emit(args, serialize.verdict_to_json(inst, verdict))
    print(f"condition {'holds' if verdict.holds else 'fails'}",
          file=sys.stderr)
    return EXIT_OK if verdict.holds else EXIT_VERIFICATION


def cmd_color_two(args) -> int:
    from . import aperiodic, lll, serialize
    from .patterns import WindowConfig
    group = parse_group_spec(args.group)
    tsets = aperiodic.build_t_sets(group, args.c, args.levels)
    window = group.ball(radius=args.radius)
    inst = aperiodic.build_2coloring_instance(group, window, tsets)
    # resample's closing scan raises on any violated event, one per fitting
    # (n, g); ``verify distinct`` re-derives the pairs from the window file.
    run = lll.resample(inst, seed=args.seed, cap=args.cap)
    config = WindowConfig(group, window, tuple(run.assignment), 2)
    outputs = [(args.out, serialize.window_to_json(config))]
    if args.instance_out:
        outputs.append((args.instance_out, serialize.instance_to_json(inst)))
    if args.trace_out:
        outputs.append((args.trace_out, {
            "seed": run.seed, "resamples": run.resamples,
            "trace": [list(i) for i in run.trace]}))
    _write_artifacts(args, outputs, seed=args.seed,
                     caps={"resample": args.cap})
    print(f"events {len(inst.events)} resamples {run.resamples} "
          f"checked {len(inst.events)} violations 0", file=sys.stderr)
    return EXIT_OK


def cmd_color_squarefree(args) -> int:
    from . import aperiodic, lll, serialize
    from .patterns import WindowConfig
    group = parse_group_spec(args.group)
    window = group.ball(radius=args.radius)
    if args.alphabet < lll.squarefree_alphabet_bound(len(group.labels)):
        print("warning: alphabet below the certified bound",
              file=sys.stderr)
    inst = aperiodic.build_squarefree_instance(
        window, args.alphabet, args.maxlen, len(group.labels), budget=args.cap)
    run = lll.resample(inst, seed=args.seed, cap=args.cap)
    colors = tuple(run.assignment)
    # Each event's support is its path, in enumeration order.
    witness = aperiodic.find_vertex_square(
        colors, (e.support for e in inst.events))
    summary = (f"events {len(inst.events)} resamples {run.resamples} "
               f"square {'found' if witness else 'none'}")
    del inst, run  # freed before the first digest loads OpenSSL
    config = WindowConfig(group, window, colors, args.alphabet)
    outputs = []
    if args.out:
        outputs.append((args.out, serialize.window_to_json(config)))
    _write_artifacts(args, outputs, seed=args.seed,
                     caps={"paths": args.cap, "resample": args.cap})
    print(summary, file=sys.stderr)
    return EXIT_OK if witness is None else EXIT_VERIFICATION


def cmd_verify_distinct(args) -> int:
    from . import aperiodic, serialize
    config = _load(args.config, serialize.window_from_json)
    tsets = aperiodic.build_t_sets(config.group, args.c, args.levels)
    report = aperiodic.verify_distinct_neighborhood(config, tsets)
    print(f"checked {report.checked} violations {len(report.violations)}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_witness(args) -> int:
    from . import aperiodic, serialize
    group = parse_group_spec(args.group)
    result = aperiodic.witness_path(group, args.word)
    if result.trivial:
        print("trivial")
        return EXIT_OK
    print(f"w {format_word(list(result.word))!r} "
          f"u {format_word(list(result.conjugator))!r} "
          f"path length {len(result.vertices) - 1}")
    if args.out:
        _emit(args, serialize.path_to_dot(group, result.vertices))
    return EXIT_OK


def _check_levels(args) -> None:
    """Refuse --levels below 1 before any window is built or read."""
    if args.levels < 1:
        raise InputError("need at least one level")


def _forest_on_ball(args) -> density.CoveringForest:
    """The forest on B(1, --radius), its level count checked first."""
    from . import density
    group = parse_group_spec(args.group)
    _check_levels(args)
    window = group.ball(radius=args.radius)
    return density.build_forest(group, window, args.levels)


def cmd_density_build_forest(args) -> int:
    from . import serialize
    forest = _forest_on_ball(args)
    if args.format == "dot":
        artifact = serialize.forest_to_dot(forest)
    else:
        artifact = serialize.forest_to_json(forest)
    _emit(args, artifact)
    sizes = [len(level.centers) for level in forest.levels]
    print(f"levels {sizes}", file=sys.stderr)
    return EXIT_OK


def cmd_density_fill(args) -> int:
    from . import density, serialize
    alpha = density.Slope.parse(args.alpha)
    forest = _forest_on_ball(args)
    config = density.fill_density(forest, alpha)
    if args.format == "csv":
        artifact = serialize.window_to_csv(config)
    elif args.format == "pgm":
        artifact = serialize.window_to_pgm(config)
    else:
        artifact = serialize.window_to_json(config)
    _write_artifacts(args, [(args.out, artifact)])
    report = density.verify_condition1(config, forest, alpha)
    print(f"clusters {len(report.clusters)} "
          f"ok {report.ok}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _load_binary_window(args, command: str):
    """The window of --config, refused unless its alphabet is {0, 1}:
    condition (1) and the measured density count 1's among 0's and 1's."""
    from . import serialize
    config = _load(args.config, serialize.window_from_json)
    if config.alphabet_size != 2:
        raise InputError(f"{command} requires a binary alphabet, not "
                         f"alphabet size {config.alphabet_size}")
    return config


def cmd_density_verify(args) -> int:
    from . import density
    alpha = density.Slope.parse(args.alpha)
    _check_levels(args)
    config = _load_binary_window(args, "density verify")
    forest = density.build_forest(config.group, config.window, args.levels)
    report = density.verify_condition1(config, forest, alpha)
    failures = [c for c in report.clusters if not c.ok]
    bad_aggregates = [a for a in report.aggregates if not a.ok]
    print(f"clusters {len(report.clusters)} failures {len(failures)} "
          f"aggregates {len(report.aggregates)} "
          f"aggregate-failures {len(bad_aggregates)}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_density_measure(args) -> int:
    from . import density
    radii = _parse_radii(args.balls)
    alpha = density.Slope.parse(args.alpha) if args.alpha else None
    config = _load_binary_window(args, "density measure")
    entries = density.measure_density(
        config, density.ball_sequence(config, radii))
    payload = {
        "alpha": None if alpha is None else str(alpha.value),
        "entries": [
            {"set": d, "size": s, "ones": o, "dens": str(f)}
            for d, s, o, f in entries
        ],
    }
    _emit(args, payload)
    return EXIT_OK


# --- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupshift",
        description="Colorings, local-lemma resampling and density "
                    "configurations on finitely generated groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_flag(p):
        p.add_argument("--group", required=True,
                       help="z^d | free:k | z2*z3 | heisenberg")

    p_group = sub.add_parser("group", help="group model utilities")
    gsub = p_group.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("ball")
    add_group_flag(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", default="")
    p.add_argument("--cap", type=cap, default=10 ** 6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_group_ball)
    p = gsub.add_parser("canon")
    add_group_flag(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_group_canon)

    p_lll = sub.add_parser("lll", help="local-lemma verification")
    lsub = p_lll.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("check-constant")
    p.add_argument("--cmax", type=int, default=32)
    p.set_defaults(func=cmd_lll_check_constant)
    p = lsub.add_parser("alphabet-bound")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_lll_alphabet_bound)
    p = lsub.add_parser("verify")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lll_verify)

    p_color = sub.add_parser("color", help="coloring constructions")
    csub = p_color.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("two")
    add_group_flag(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--c", type=int, default=17)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=cap, default=10 ** 6)
    p.add_argument("--out", required=True)
    p.add_argument("--instance-out")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_color_two)
    p = csub.add_parser("squarefree")
    add_group_flag(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True,
                   help="half-length L; paths up to length 2L-1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=cap, default=10 ** 6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_color_squarefree)

    p_verify = sub.add_parser("verify", help="re-check stored artifacts")
    vsub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("distinct")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--c", type=int, default=17)
    p.set_defaults(func=cmd_verify_distinct)

    p = sub.add_parser("witness", help="aperiodicity witness path")
    add_group_flag(p)
    p.add_argument("--word", required=True)
    p.add_argument("--out", help="DOT output path")
    p.set_defaults(func=cmd_witness)

    p_density = sub.add_parser("density", help="covering-forest densities")
    dsub = p_density.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("build-forest")
    add_group_flag(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_density_build_forest)
    p = dsub.add_parser("fill")
    add_group_flag(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--alpha", required=True, help="exact rational p/q")
    p.add_argument("--format", choices=["json", "csv", "pgm"],
                   default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density_fill)
    p = dsub.add_parser("verify")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_density_verify)
    p = dsub.add_parser("measure")
    p.add_argument("--config", required=True)
    p.add_argument("--balls", required=True, help="e.g. 1..25 or 1,5,10")
    p.add_argument("--alpha")
    p.add_argument("--out")
    p.set_defaults(func=cmd_density_measure)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args._started = time.time()
    args._argv = argv
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: resource: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    gc.disable()
    code = dispatch()
    gc.freeze()  # the shutdown collections skip what is frozen
    sys.exit(code)


if __name__ == "__main__":
    main()
