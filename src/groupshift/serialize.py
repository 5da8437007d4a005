"""JSON / CSV / PGM / DOT serialization and the run manifest.

All JSON is emitted with sorted keys and a trailing newline so repeated
runs with identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from .exact import Quad
from .groups import GroupModel, InputError, IntegerLattice, parse_group_spec
from .lll import BadEvent, LLLInstance, Verdict
from .patterns import WindowConfig


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def unlimited_int_digits():
    """Render ints of any length while the context is open.

    Exact margins can exceed the int -> str digit limit of Python 3.10.7+
    (4,300 digits by default); parsing input keeps the limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # < 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def quad_to_json(q: Quad):
    if q.is_rational:
        return str(q.a)
    return {"rational": str(q.a), "sqrt2": str(q.b)}


# --- window configurations ---------------------------------------------

def window_to_json(x: WindowConfig) -> dict:
    return {
        "group": x.group.spec,
        "radius": x.window.radius,
        "alphabet_size": x.alphabet_size,
        "cells": [[x.group.element_word(g), a]
                  for g, a in zip(x.window.members, x.colors)],
    }


def window_from_json(data: dict) -> WindowConfig:
    """Decode a window; InputError unless the radius is an int >= 0 (not a
    bool) and the cells list each element of the ball exactly once.
    """
    group = parse_group_spec(data["group"])
    radius = data["radius"]
    if type(radius) is not int or radius < 0:
        raise InputError(f"window radius {radius!r} is not an int >= 0")
    window = group.ball(radius=radius)
    placed = {}
    for word, symbol in data["cells"]:
        i = window.index.get(group.canonicalize(word))
        if i is None:
            raise InputError(f"cell {word!r} lies outside the ball")
        if i in placed:
            raise InputError(f"cell {word!r} repeats an earlier element")
        placed[i] = symbol
    if len(placed) != len(window):
        raise InputError(f"window misses {len(window) - len(placed)} cells")
    return WindowConfig(group=group, window=window,
                        colors=tuple(placed[i] for i in range(len(window))),
                        alphabet_size=data["alphabet_size"])


def _z2_rows(x: WindowConfig, what: str, blank, sep: str) -> list[str]:
    """Grid rows of a Z^2 window, top row first; ``blank`` off the ball."""
    if not isinstance(x.group, IntegerLattice) or x.group.d != 2:
        raise InputError(f"{what} export requires a z^2 window")
    r = x.window.radius
    return [
        sep.join(str(x[i, j] if (i, j) in x else blank)
                 for i in range(-r, r + 1))
        for j in range(r, -r - 1, -1)
    ]


def window_to_csv(x: WindowConfig) -> str:
    """Grid export for Z^2 windows; cells outside the ball are blank."""
    return "\n".join(_z2_rows(x, "CSV grid", "", ",")) + "\n"


def window_to_pgm(x: WindowConfig) -> str:
    """Binary-alphabet Z^2 windows as plain PGM; background = 2."""
    rows = _z2_rows(x, "PGM", 2, " ")
    if x.alphabet_size != 2:
        raise InputError("PGM export requires a binary alphabet")
    side = 2 * x.window.radius + 1
    return "\n".join(["P2", f"{side} {side}", "2", *rows]) + "\n"


# --- LLL instances and verdicts ----------------------------------------

def weight_from_json(value) -> Quad:
    if isinstance(value, str):
        return Quad(Fraction(value))
    return Quad(Fraction(value["rational"]), Fraction(value["sqrt2"]))


@unlimited_int_digits()
def instance_to_json(inst: LLLInstance) -> dict:
    names = [f"v{v}" for v in range(len(inst.alphabet))]
    return {
        "variables": [{"id": name, "alphabet": k}
                      for name, k in zip(names, inst.alphabet)],
        "events": [
            {
                "id": list(e.id),
                "support": [names[v] for v in e.support],
                "probability": quad_to_json(e.probability),
                "weight": quad_to_json(e.weight),
            }
            for e in inst.events
        ],
    }


def instance_from_json(data: dict) -> LLLInstance:
    """Decode an instance; variable v is the v-th declared variable id.

    InputError for an id declared twice or a support id never declared.
    """
    position: dict = {}
    for v, var in enumerate(data["variables"]):
        if position.setdefault(var["id"], v) != v:
            raise InputError(f"variable {var['id']!r} is declared twice")
    events = []
    for e in data["events"]:
        names = e["support"]
        try:
            support = tuple(map(position.__getitem__, names))
        except KeyError as exc:
            raise InputError(f"support variable {exc} is undeclared") from None
        events.append(BadEvent(
            id=tuple(e["id"]),
            support=support,
            probability=weight_from_json(e["probability"]),
            weight=weight_from_json(e["weight"]),
            violated=None,
        ))
    return LLLInstance(
        alphabet=tuple(var["alphabet"] for var in data["variables"]),
        events=events)


@unlimited_int_digits()
def verdict_to_json(inst: LLLInstance, verdict: Verdict) -> dict:
    # Events of one signature share a margin object (see
    # lll.verify_condition), so each distinct margin is rendered once.  The
    # verdict keeps every margin alive meanwhile, so id() is a safe key and
    # spares hashing ~6,000-bit fractions.
    rendered: dict[int, tuple] = {}
    events = []
    for e in inst.events:
        m = verdict.margins[e.id]
        if id(m) not in rendered:
            rendered[id(m)] = (quad_to_json(m), float(m), m.sign() >= 0)
        margin, margin_float, ok = rendered[id(m)]
        events.append({
            "id": list(e.id),
            "probability": quad_to_json(e.probability),
            "weight": quad_to_json(e.weight),
            "margin": margin,
            "margin_float": margin_float,
            "ok": ok,
        })
    return {"holds": verdict.holds, "events": events}


# --- DOT exports --------------------------------------------------------

def path_to_dot(group: GroupModel, vertices) -> str:
    lines = ["graph witness {"]
    names = {v: f'"{group.element_word(v) or "e"}"' for v in vertices}
    for v in vertices:
        lines.append(f"  {names[v]};")
    for a, b in zip(vertices, vertices[1:]):
        lines.append(f"  {names[a]} -- {names[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_to_dot(forest) -> str:
    words = [forest.group.element_word(g) for g in forest.window.members]
    lines = ["digraph forest {", "  rankdir=BT;"]

    def name(n, g):
        return f'"L{n}:{words[g] or "e"}"'

    for n in range(len(forest.levels)):
        lines.append("  { rank=same; " + " ".join(
            f"{name(n, g)};" for g in forest.levels[n].centers
        ) + " }")
    for n in range(1, len(forest.levels)):
        parent = forest.levels[n].parent
        for c in sorted(parent, key=forest.keys.__getitem__):
            lines.append(f"  {name(n - 1, c)} -> {name(n, parent[c])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_to_json(forest) -> dict:
    words = [forest.group.element_word(g) for g in forest.window.members]
    levels = []
    for n, level in enumerate(forest.levels):
        entry = {
            "centers": [words[g] for g in level.centers],
            "edges": sorted(
                sorted([words[a], words[b]])
                for a in level.centers
                for b in level.edges[a]
                if a < b  # each edge once; the pair is sorted by word
            ),
        }
        if level.parent is not None:
            entry["parent"] = {
                words[child]: words[par]
                for child, par in level.parent.items()
            }
        levels.append(entry)
    return {
        "group": forest.group.spec,
        "radius": forest.window.radius,
        "levels": levels,
    }


# --- run manifest -------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_path: Path, argv: list[str], seed, caps: dict,
                   outputs: list[Path], duration: float) -> Path:
    manifest = {
        "argv": argv,
        "seed": seed,
        "caps": caps,
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "duration_s": round(duration, 6),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(dumps(manifest))
    return path
