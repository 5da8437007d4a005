"""JSON / CSV / PGM / DOT serialization and the run manifest.

All JSON is emitted with sorted keys and a trailing newline so repeated
runs with identical inputs produce byte-identical artifacts.  Artifacts
are written to text files piece by piece, so none is built whole; an
artifact file is hashed from its UTF-8 bytes as they are written.
Numbers and variable names are :class:`_Plain` strings, quoted as they
are, and a power-of-two denominator, of up to thousands of digits, is
written from an exact Decimal (see :func:`_power_of_two_texts`).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING

from .groups import GroupModel, InputError, IntegerLattice, parse_group_spec
from .patterns import WindowConfig

if TYPE_CHECKING:  # imported where used: window and forest files need neither
    from .exact import Quad
    from .lll import LLLInstance, Verdict


def dump(obj, fh) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, to the text file ``fh``.

    With an indent, :mod:`json` encodes through its pure-Python generators,
    one small piece at a time.  This writer lays out the same text with one
    ``fh.write`` per scalar in an object and one per list of scalars, so the
    whole text is never built: the file's own buffer batches the pieces.
    Object keys must be strings.
    """
    _write(obj, "\n", fh.write)
    fh.write("\n")


def dumps(obj) -> str:
    """The text that :func:`dump` writes, as a string."""
    buffer = io.StringIO()
    dump(obj, buffer)
    return buffer.getvalue()


_INFINITY = float("inf")
_string = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    """A float as :mod:`json` writes it, non-finite ones included."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


class _Plain(str):
    """A string that JSON writes as is between quotes: printable ASCII
    other than ``"`` and ``\\``, such as "-3/8" or "v12"."""

    __slots__ = ()


#: The JSON text of a scalar, by its exact type.  ``type(True)`` is bool,
#: never int, and a bool indexes ("false", "true") as 0 or 1.
_SCALARS = {str: _string, _Plain: lambda text: '"' + text + '"',
            int: int.__repr__, float: _float,
            bool: ("false", "true").__getitem__,
            type(None): lambda _: "null"}


def _scalar(value) -> str:
    return _SCALARS[type(value)](value)


def _write(value, newline: str, put) -> None:
    """Pass the JSON text of ``value`` to ``put`` in pieces; ``newline`` is
    a line break and the indent of the line that ``value`` starts on."""
    encode = _SCALARS.get(type(value))
    if encode is not None:
        put(encode(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            item = value[key]
            encode = _SCALARS.get(type(item))
            if encode is None:
                put(separator + _string(key) + ": ")
                _write(item, inner, put)
            else:
                put(separator + _string(key) + ": " + encode(item))
            separator = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {_Plain}:
            put("[" + inner + '"' + ('",' + inner + '"').join(value)
                + '"' + newline + "]")
            return
        if kinds.issubset(_SCALARS):
            encode = _SCALARS[kinds.pop()] if len(kinds) == 1 else _scalar
            put("[" + inner + ("," + inner).join(map(encode, value))
                + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            encode = _SCALARS.get(type(item))
            if encode is None:
                put(separator)
                _write(item, inner, put)
            else:
                put(separator + encode(item))
            separator = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


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


def _power_of_two_texts():
    """A function that returns ``str(2**k)`` for k >= 0, for one render.

    It keeps the exact Decimal of each 2**k asked for, makes a new one as
    the nearest lower one times 2**(k - k0), in a context that holds any
    integer and traps Inexact, and writes it with the linear ``str()`` of
    an integral Decimal: an int's is quadratic in its digits."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
    exponents, powers = [0], [Decimal(1)]

    def text(k: int) -> str:
        i = bisect_right(exponents, k) - 1
        if exponents[i] != k:
            power = exact.multiply(powers[i], exact.power(2, k - exponents[i]))
            i += 1
            exponents.insert(i, k)
            powers.insert(i, power)
        return str(powers[i])

    return text


def quad_renderer():
    """A function that returns the JSON form of a Quad, rendering each
    Quad object once: its text if it is rational, else its parts' texts.

    Events of one class share their probability and weight objects (see
    instance_from_json and the builders), and events of one signature share
    a margin object (see lll.verify_condition).  The caller keeps every
    object alive while it renders, so id() is a safe key and spares hashing
    ~6,000-bit numbers.  Distinct margins share power-of-two denominators
    (634 on a two_z2 verdict hold 494 values), each written from the exact
    Decimals of one :func:`_power_of_two_texts`.
    """
    from .exact import lowest_terms
    power_of_two = _power_of_two_texts()
    rendered: dict[int, object] = {}

    def ratio(n: int, d: int) -> _Plain:
        """n/d in lowest terms as Fraction writes it: "n/d", or "n"."""
        n, _, d = lowest_terms(n, 0, d)
        if d == 1:
            return _Plain(n)
        if d & (d - 1):
            return _Plain(f"{n}/{d}")
        return _Plain(f"{n}/{power_of_two(d.bit_length() - 1)}")

    def render(q: Quad):
        t = rendered.get(id(q))
        if t is None:
            t = rendered[id(q)] = (
                ratio(q.p, q.q) if q.is_rational else
                {"rational": ratio(q.p, q.q), "sqrt2": ratio(q.r, q.q)})
        return t

    return render


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

@unlimited_int_digits()
def instance_to_json(inst: LLLInstance) -> dict:
    names = [_Plain(f"v{v}") for v in range(len(inst.alphabet))]
    render = quad_renderer()
    return {
        "variables": [{"id": name, "alphabet": k}
                      for name, k in zip(names, inst.alphabet)],
        "events": [
            {
                "id": list(e.id),
                "support": [names[v] for v in e.support],
                "probability": render(e.probability),
                "weight": render(e.weight),
            }
            for e in inst.events
        ],
    }


def instance_from_json(data: dict) -> LLLInstance:
    """Decode and validate an instance; variable v is the v-th declared
    variable id, so every support position lies in 0..n-1.

    The one place an instance is checked, each item as it is read:
    InputError for a variable id declared twice, an alphabet size that is
    not an int >= 1, a support id never declared, an event id that is
    neither a list nor a string, or one that repeats.  Each distinct
    number is read once, and one whose height exceeds
    :data:`groupshift.lll.MARGIN_HEIGHT_LIMIT` raises ResourceLimitError:
    a margin that it enters would exceed the limit too.
    """
    from .exact import Quad, parse_fraction
    from .lll import MARGIN_HEIGHT_LIMIT, BadEvent, LLLInstance

    read: dict = {}  # number string or (rational, sqrt2) pair -> Quad

    def quad(value) -> Quad:
        """The inverse of :func:`quad_renderer`."""
        parts = ((value,) if isinstance(value, str)
                 else (value["rational"], value["sqrt2"]))
        q = read.get(parts)
        if q is None:
            q = read[parts] = Quad(*(
                parse_fraction(part, MARGIN_HEIGHT_LIMIT) for part in parts))
        return q

    position: dict = {}
    alphabet = []
    for v, var in enumerate(data["variables"]):
        if position.setdefault(var["id"], v) != v:
            raise InputError(f"variable {var['id']!r} is declared twice")
        k = var["alphabet"]
        if type(k) is not int or k < 1:  # bools are rejected too
            raise InputError(f"variable {v} has alphabet size {k!r}, "
                             "not an int >= 1")
        alphabet.append(k)
    events = []
    ids = set()
    for e in data["events"]:
        ident = e["id"]
        if not isinstance(ident, (list, str)):  # a string reads as its chars
            raise InputError(f"event {len(events)} has the id {ident!r:.40}; "
                             "an event id must be a list")
        ident = tuple(ident)
        if ident in ids:
            raise InputError(f"event id {ident} is repeated")
        ids.add(ident)
        names = e["support"]
        try:
            support = tuple(map(position.__getitem__, names))
        except KeyError as exc:
            raise InputError(f"support variable {exc} is undeclared") from None
        events.append(BadEvent(
            id=ident,
            support=support,
            probability=quad(e["probability"]),
            weight=quad(e["weight"]),
        ))
    return LLLInstance(tuple(alphabet), events)


@unlimited_int_digits()
def verdict_to_json(inst: LLLInstance, verdict: Verdict) -> dict:
    render = quad_renderer()
    floats: dict[int, float] = {}  # id of a margin -> float(margin)

    events = []
    for e in inst.events:
        m = verdict.margins[e.id]
        if id(m) not in floats:
            floats[id(m)] = float(m)
        events.append({
            "id": list(e.id),
            "probability": render(e.probability),
            "weight": render(e.weight),
            "margin": render(m),
            "margin_float": floats[id(m)],
            "ok": verdict.ok[e.id],
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


# --- artifact files and the run manifest -------------------------------

class _HashingFile(io.RawIOBase):
    """A binary file that feeds each block it writes to SHA-256."""

    def __init__(self, fh):
        import hashlib  # loads OpenSSL; commands that write no file skip it
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.fh.write(data)


def write(artifact, fh) -> None:
    """Write ``artifact`` to the text file ``fh``: a string is text as it
    is (DOT, CSV, PGM), anything else is JSON through :func:`dump`."""
    if isinstance(artifact, str):
        fh.write(artifact)
    else:
        dump(artifact, fh)


def write_artifact(path: Path, artifact) -> str:
    """:func:`write` ``artifact`` to ``path`` as UTF-8 and return the
    SHA-256 hex digest of the bytes written."""
    with open(path, "wb") as fh:
        sink = _HashingFile(fh)
        with io.TextIOWrapper(sink, encoding="utf-8", newline="\n") as text:
            write(artifact, text)
    return sink.sha256.hexdigest()


def manifest_path(out_path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(out_path: Path, argv: list[str], seed, caps: dict,
                   outputs: dict, duration: float) -> Path:
    """Write :func:`manifest_path` of ``out_path``; ``outputs`` maps each
    file written to the digest that :func:`write_artifact` returned."""
    manifest = {
        "argv": argv,
        "seed": seed,
        "caps": caps,
        "outputs": outputs,
        "duration_s": round(duration, 6),
    }
    path = manifest_path(out_path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump(manifest, fh)
    return path
