"""Patterns and window colorings.

A window coloring is one colour tuple on the positions of a
:class:`~groupshift.groups.Ball`; ``x[g]`` and ``g in x`` read it by group
element.  Patterns are anchored at the identity: supports are absolute
element sets and occurrence positions are left translates.  Occurrence
search skips any position whose translated support leaves the window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .groups import Ball, FrozenRecord, GroupModel, InputError, Record

if TYPE_CHECKING:
    from fractions import Fraction


class EmptySupportError(InputError):
    """Density of a pattern with empty support is undefined."""


class Pattern(FrozenRecord):
    """A finite support-to-symbol map, support in canonical element order."""

    __slots__ = _fields = ("support", "symbols")

    def __init__(self, support: tuple, symbols: tuple):
        self._set(support, symbols)
        self.__post_init__()

    def __post_init__(self):
        if len(self.support) != len(set(self.support)):
            raise InputError("pattern support contains duplicates")
        if len(self.support) != len(self.symbols):
            raise InputError("support and symbols must align")

    def __len__(self) -> int:
        return len(self.support)


def make_pattern(group: GroupModel, cells: dict) -> Pattern:
    support = tuple(group.sorted_elements(cells))
    return Pattern(support=support, symbols=tuple(cells[g] for g in support))


class WindowConfig(Record):
    """A coloring of one window: ``colors[i]`` is the symbol on
    ``window.members[i]``."""

    __slots__ = _fields = ("group", "window", "colors", "alphabet_size")

    def __init__(self, group: GroupModel, window: Ball, colors: tuple,
                 alphabet_size: int):
        self.group, self.window = group, window
        self.colors, self.alphabet_size = colors, alphabet_size
        self.__post_init__()

    def __post_init__(self):
        if len(self.colors) != len(self.window):
            raise InputError(f"{len(self.colors)} symbols for "
                             f"{len(self.window)} window cells")
        if type(self.alphabet_size) is not int:  # bools are rejected too
            raise InputError(f"non-int alphabet size {self.alphabet_size!r}")
        for g, a in zip(self.window.members, self.colors):
            if type(a) is not int or not 0 <= a < self.alphabet_size:
                raise InputError(f"symbol {a!r} outside alphabet at {g}")

    def __getitem__(self, g) -> int:
        return self.colors[self.window.index[g]]

    def __contains__(self, g) -> bool:
        return g in self.window.index


def density_of(symbols) -> Fraction:
    """Exact fraction of ``symbols`` equal to 1.

    The one ones-count behind every density in the package.  Raises
    EmptySupportError when ``symbols`` is empty, since the density of an
    empty set is undefined.
    """
    from fractions import Fraction
    symbols = list(symbols)
    if not symbols:
        raise EmptySupportError("density over an empty set is undefined")
    return Fraction(symbols.count(1), len(symbols))


def interior_and_boundary(group: GroupModel, F, K) -> tuple[frozenset, frozenset]:
    """Split F into K-interior and K-boundary: Int = {g : gK subset of F}."""
    F = frozenset(F)
    K = list(K)
    interior = frozenset(
        g for g in F if all(group.mul(g, k) in F for k in K)
    )
    return interior, F - interior


def pattern_occurrences(x: WindowConfig, p: Pattern) -> list:
    """Positions g inside the window where the translated pattern matches.

    Positions whose translated support exits the window are skipped.
    """
    group = x.group
    out = []
    for g in x.window.members:
        ok = True
        for h, a in zip(p.support, p.symbols):
            gh = group.mul(g, h)
            if gh not in x or x[gh] != a:
                ok = False
                break
        if ok:
            out.append(g)
    return out
