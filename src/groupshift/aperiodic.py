"""The two aperiodicity constructions.

First, the 2-coloring event family with the distinct-neighborhood
property: test sets T_i with T_i and s_i T_i disjoint, |T_i| = C*i, and
one bad event per (level n, position g) asserting equality of the two
translated restrictions.  Second, square-free vertex colorings of Cayley
graphs: odd-path enumeration, vertex-square detection and the conjugation
walk that turns a nontrivial stabilizer element into a square witness.
Both run on the positions of one window, a :class:`~groupshift.groups.Ball`:
variables, event supports and paths are ints, and the ball's members map
them back to elements.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .groups import Ball, GroupModel, InputError, ResourceLimitError
from .patterns import WindowConfig

if TYPE_CHECKING:  # imported by the builders: the checks load no resampler
    from .lll import LLLInstance


@dataclass(frozen=True)
class TSets:
    """Test sets for the 2-coloring family: one (s_i, T_i) per level."""

    c: int
    entries: tuple  # tuple of (s_i, T_i tuple), index i starting at 1

    def level(self, i: int) -> tuple:
        if not 1 <= i <= len(self.entries):
            raise InputError(f"no T-set at level {i}")
        return self.entries[i - 1]

    @property
    def levels(self) -> int:
        return len(self.entries)


def build_t_sets(group: GroupModel, c: int, i_max: int,
                 scan_cap: int = 10 ** 5) -> TSets:
    """Greedy construction of the test sets in BFS order.

    s_i is the i-th non-identity element of the BFS enumeration.  T_i is
    filled greedily with elements t keeping T_i and s_i T_i disjoint:
    admit t when t is not in s_i T_i, s_i t is not in T_i and t != s_i t.
    """
    if c < 1 or i_max < 1:
        raise InputError("C and i_max must be positive")
    identity = group.identity()
    s_list = []
    for g in group.bfs_stream(cap=scan_cap):
        if g != identity:
            s_list.append(g)
        if len(s_list) >= i_max:
            break
    if len(s_list) < i_max:
        raise ResourceLimitError(f"enumeration exhausted before i={i_max}")

    entries = []
    for i, s in enumerate(s_list, start=1):
        target = c * i
        t_set: list = []
        t_frozen: set = set()
        shifted: set = set()  # s * T_i
        for t in group.bfs_stream(cap=scan_cap):
            st = group.mul(s, t)
            if t in shifted or st in t_frozen or st == t:
                continue
            t_set.append(t)
            t_frozen.add(t)
            shifted.add(st)
            if len(t_set) == target:
                break
        if len(t_set) < target:
            raise ResourceLimitError(
                f"window exhausted before |T_{i}| = {target}"
            )
        entries.append((s, tuple(t_set)))
    return TSets(c=c, entries=tuple(entries))


def check_t_sets(group: GroupModel, tsets: TSets) -> None:
    """Re-verify both defining invariants by direct set arithmetic."""
    for i in range(1, tsets.levels + 1):
        s, t = tsets.level(i)
        if len(t) != tsets.c * i:
            raise InputError(f"|T_{i}| != C*{i}")
        shifted = {group.mul(s, x) for x in t}
        if shifted & set(t):
            raise InputError(f"T_{i} meets s_{i} T_{i}")


#: Window positions whose right-translation columns :func:`fitting_pairs`
#: holds at a time, so that its tables take (prefixes) x TABLE_BLOCK
#: entries whatever the radius.
TABLE_BLOCK = 1024


def _walk_columns(adjacency, sizes, radius, words, block) -> list:
    """Per word w (a tuple of step indices), the positions of members[i] w
    for the rows i of ``block`` (consecutive positions) below
    sizes[radius - |w|].

    Such a row lies within radius - |w| of the center, so every proper
    prefix of members[i] w lies within radius - 1: an interior vertex,
    whose adjacency lists every step in step order.  Column w is then
    column w[:-1] stepped by the last letter, and the columns of shared
    prefixes are built once.
    """
    lo = block[0]
    columns = {(): block}
    out = []
    for word in words:
        if len(word) > radius:
            out.append(())
            continue
        for j in range(1, len(word) + 1):
            prefix = word[:j]
            if prefix not in columns:
                rows = max(0, sizes[radius - j] - lo)
                columns[prefix] = list(map(
                    itemgetter(prefix[-1]),
                    map(adjacency.__getitem__, columns[prefix[:-1]][:rows])))
        out.append(columns[word])
    return out


def fitting_pairs(group: GroupModel, window: Ball, s,
                  t_set) -> Iterator[tuple]:
    """The fitting positions of one level, with their translated rows.

    For each position i of the window, in order, yields ``(i, row)``
    with ``row`` the flat tuple of the positions of g t_1, g s t_1,
    g t_2, g s t_2, ... over t_k in ``t_set``, g = ``window.members[i]``,
    provided every product lies in the window; positions where g T or
    g s T leaves the window are skipped.  So ``row[0::2]`` is g T and
    ``row[1::2]`` is g s T, pair by pair.  This is the single definition
    of a fitting (n, g) shared by the instance builder and the
    distinct-neighborhood verifier.

    Right translation by h is a walk along a geodesic word of h on the
    ball's adjacency (see :func:`_walk_columns`), valid for the rows
    within radius - |h| of the center.  Rows beyond that reach take the
    product and its lookup, since a walk from there may leave the ball
    and come back in.  Such a row first tries the translate that ruled
    out the last row that did not fit, which near the sphere often rules
    it out too; a hit is kept for its place in the row, so no product is
    taken twice.  The tables are built one block of :data:`TABLE_BLOCK`
    rows at a time.
    """
    mul, index, members = group.mul, window.index, window.members
    radius, sizes = window.radius, window.sizes
    step = {x: k for k, x in enumerate(group.step_elements())}
    hs = [h for t in t_set for h in (t, mul(s, t))]  # t, s t alternating
    words = [tuple(step[group.gen(*letter)] for letter in group.geodesic(h))
             for h in hs]
    reach = [sizes[radius - len(w)] if len(w) <= radius else 0
             for w in words]
    full = min(reach, default=0)  # the rows that every column covers
    miss = None  # the column that ruled out the last row that did not fit
    # The index's own position ints: the events that keep them add none.
    positions = list(index.values())
    for lo in range(0, len(positions), TABLE_BLOCK):
        block = positions[lo:lo + TABLE_BLOCK]
        columns = _walk_columns(window.adjacency, sizes, radius, words, block)
        covered = max(0, full - lo)
        yield from zip(block[:covered], zip(*columns))
        for j, i in enumerate(block[covered:], covered):
            g, row = members[i], []
            if miss is not None:
                probe = (columns[miss][j] if i < reach[miss]
                         else index.get(mul(g, hs[miss])))
                if probe is None:
                    continue
            for k, (column, h, stop) in enumerate(zip(columns, hs, reach)):
                if i < stop:
                    p = column[j]
                elif k == miss:
                    p = probe
                else:
                    p = index.get(mul(g, h))
                if p is None:
                    miss = k
                    break
                row.append(p)
            else:
                yield i, tuple(row)


def build_2coloring_instance(group: GroupModel, window: Ball,
                             tsets: TSets) -> LLLInstance:
    """Binary variables on the window positions; one event per fitting (n, g).

    The event for (n, g), with id (n, position of g), has the flat row of
    :func:`fitting_pairs` as its support.  It is violated when the
    restriction to g T_n, the row's even places, equals the restriction
    to g s_n T_n, its odd places, under t -> s_n t; probability 2^(-C n),
    weight 2^(-C n / 2).
    """
    from .lll import (
        BadEvent,
        LLLInstance,
        equal_on,
        two_coloring_probability,
        two_coloring_weight,
    )
    events: list[BadEvent] = []
    sides = slice(0, None, 2), slice(1, None, 2)  # disjoint g T_n, g s_n T_n
    for n in range(1, tsets.levels + 1):
        s, t_set = tsets.level(n)
        probability = two_coloring_probability(tsets.c, n)
        weight = two_coloring_weight(tsets.c, n)
        for i, row in fitting_pairs(group, window, s, t_set):
            events.append(BadEvent(
                id=(n, i),
                support=row,
                probability=probability,
                weight=weight,
                violated=equal_on(row, *sides),
            ))
    return LLLInstance(alphabet=(2,) * len(window), events=events)


@dataclass
class DistinctNeighborhoodReport:
    violations: list  # (n, g) pairs with equal restrictions
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_distinct_neighborhood(x: WindowConfig,
                                 tsets: TSets) -> DistinctNeighborhoodReport:
    """Exhaustive check of x|gT_n != x|g s_n T_n over all fitting (n, g).

    The comparison runs on the window's colour tuple: the colours of a
    flat row of :func:`fitting_pairs` at its even places (g T_n) against
    those at its odd places (g s_n T_n).  A row has 2 C n >= 2 places, so
    its getter returns a tuple.  The report names each violation by its
    level and element.
    """
    members, colors = x.window.members, x.colors
    violations = []
    checked = 0
    for n in range(1, tsets.levels + 1):
        s, t_set = tsets.level(n)
        for i, row in fitting_pairs(x.group, x.window, s, t_set):
            checked += 1
            c = itemgetter(*row)(colors)
            if c[0::2] == c[1::2]:
                violations.append((n, members[i]))
    return DistinctNeighborhoodReport(violations=violations, checked=checked)


def enumerate_odd_paths(w: Ball, max_half_length: int,
                        budget: int = 10 ** 6) -> Iterator[tuple]:
    """Simple paths of odd edge-length <= 2*max_half_length - 1.

    Paths are tuples of window positions.  Each is emitted exactly once up to
    direction reversal (the end with the smaller position comes first),
    in depth-first order: by start position, then by neighbour order.
    Raises InputError when max_half_length < 1 and ResourceLimitError when
    the budget is exceeded.
    """
    if max_half_length < 1:
        raise InputError(f"max half-length {max_half_length} is not positive")
    adjacency = w.adjacency
    max_vertices = 2 * max_half_length
    emitted = 0
    on_path = bytearray(len(adjacency))
    for start in range(len(adjacency)):
        path = [start]
        on_path[start] = 1
        # stack[k] iterates the neighbours of path[k] not yet tried.
        stack = [iter(adjacency[start])]
        while stack:
            for nxt in stack[-1]:
                if not on_path[nxt]:
                    break
            else:
                stack.pop()
                on_path[path.pop()] = 0
                continue
            path.append(nxt)
            if len(path) % 2 == 0 and start < nxt:
                emitted += 1
                if emitted > budget:
                    raise ResourceLimitError(
                        f"odd-path budget {budget} exceeded after "
                        f"{emitted - 1}"
                    )
                yield tuple(path)
            if len(path) == max_vertices:
                path.pop()
            else:
                on_path[nxt] = 1
                stack.append(iter(adjacency[nxt]))


def is_vertex_square(coloring: Sequence[int], path: tuple) -> bool:
    """True when the colors along ``path`` repeat under the half shift."""
    n = len(path) // 2
    return all(coloring[path[i]] == coloring[path[i + n]] for i in range(n))


def find_vertex_square(coloring: Sequence[int],
                       paths: Iterable[tuple]) -> Optional[tuple]:
    """First of ``paths`` that is a vertex square, or None.

    ``coloring[i]`` is the color of position i; paths are positions.
    """
    for path in paths:
        if is_vertex_square(coloring, path):
            return path
    return None


def build_squarefree_instance(w: Ball, alphabet_size: int,
                              max_half_length: int, generator_count: int,
                              budget: int = 10 ** 6) -> LLLInstance:
    """One event per odd path: probability |A|^-n, weight (8|S|^2)^-n.

    The variables are the window positions.  A simple path has distinct
    vertices, so it is its own support and has at most |w| of them.
    Events of one half-length n share one probability and one weight.
    """
    from .exact import Quad
    from .lll import BadEvent, LLLInstance, equal_on
    if alphabet_size < 2:
        raise InputError("alphabet must have at least 2 symbols")
    base = 8 * generator_count * generator_count
    halves = range(min(max_half_length, len(w) // 2) + 1)
    probability = [Quad(Fraction(1, alphabet_size ** n)) for n in halves]
    weight = [Quad(Fraction(1, base ** n)) for n in halves]
    split = [(slice(None, n), slice(n, None)) for n in halves]
    events = []
    # The events form no reference cycles, but their ~10^5 objects set off
    # full collections that scan the whole heap and free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for k, path in enumerate(
                enumerate_odd_paths(w, max_half_length, budget)):
            n = len(path) // 2
            events.append(BadEvent(
                id=(n, k),
                support=path,
                probability=probability[n],
                weight=weight[n],
                violated=equal_on(path, *split[n]),
            ))
    finally:
        if collecting:
            gc.enable()
    return LLLInstance(alphabet=(alphabet_size,) * len(w), events=events)


def path_dependency_counts(w: Ball, max_half_length: int,
                           budget: int = 10 ** 6) -> list[dict]:
    """For each odd path, count odd paths of each half-length sharing a vertex.

    Returns a list aligned with enumeration order; entry k maps j to the
    number of length-(2j-1) paths sharing at least one vertex with path k
    (excluding the path itself at its own level).
    """
    from .lll import neighbour_counts
    paths = list(enumerate_odd_paths(w, max_half_length, budget))
    return neighbour_counts(paths, [len(p) // 2 for p in paths], len(w))


@dataclass(frozen=True)
class WitnessPath:
    """Conjugation walk certifying aperiodicity for one group element.

    trivial is True iff the input word equals the identity.  Otherwise
    ``vertices`` is the walk v_0 .. v_{2n-1} built from the minimal
    conjugate word w (g = u w u^-1), asserted to be a simple path.
    """

    trivial: bool
    word: tuple = ()          # letters of w
    conjugator: tuple = ()    # letters of u
    vertices: tuple = ()


def witness_path(group: GroupModel, word: str) -> WitnessPath:
    """Write g = u w u^-1 with w its least conjugate; walk along w w.

    ``group.least_conjugate`` gives w and u without search.  The walk is
    the first 2n prefixes of the word w w, n = |w|.
    """
    g = group.canonicalize(word)
    if g == group.identity():
        return WitnessPath(trivial=True)
    w, u = group.least_conjugate(g)
    w_letters = group.geodesic(w)
    vertices = [group.identity()]
    for label, exp in (w_letters * 2)[:-1]:
        vertices.append(group.mul(vertices[-1], group.gen(label, exp)))
    if len(set(vertices)) != len(vertices):
        raise AssertionError("witness walk revisits a vertex")
    return WitnessPath(
        trivial=False,
        word=tuple(w_letters),
        conjugator=tuple(group.geodesic(u)),
        vertices=tuple(vertices),
    )
