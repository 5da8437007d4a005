"""Window colorings and the one ones-count.

A window coloring is one colour tuple on the positions of a
:class:`~groupshift.groups.Ball`; ``x[g]`` and ``g in x`` read it by group
element.  :func:`count_ones` is the count behind every density in the
package.
"""

from __future__ import annotations

from .groups import Ball, GroupModel, InputError, Record


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


def count_ones(symbols) -> int:
    """The number of ``symbols`` equal to 1: the one ones-count behind
    every density in the package."""
    return list(symbols).count(1)
