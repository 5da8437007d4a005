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
from typing import Iterator, Optional, Sequence

from .exact import Quad
from .groups import Ball, GroupModel, InputError, ResourceLimitError
from .lll import (
    BadEvent,
    LLLInstance,
    equal_on,
    neighbour_counts,
    two_coloring_probability,
    two_coloring_weight,
)
from .patterns import WindowConfig


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


def fitting_pairs(group: GroupModel, window: Ball, s,
                  t_set) -> Iterator[tuple]:
    """The fitting positions of one level, with their translated pairs.

    For each position i of the window, in order, yields ``(i, pairs)``
    with ``pairs`` the tuple of the positions of (g t, g s t) over t in
    ``t_set``, g = ``window.members[i]``, provided every product lies in
    the window; positions where g T or g s T leaves the window are
    skipped.  This is the single definition of a fitting (n, g) shared by
    the instance builder and the distinct-neighborhood verifier.
    """
    mul, index = group.mul, window.index
    shifted = [(t, mul(s, t)) for t in t_set]
    for g, i in index.items():
        pairs = []
        for t, st in shifted:
            u = index.get(mul(g, t))
            v = index.get(mul(g, st))
            if u is None or v is None:
                break
            pairs.append((u, v))
        else:
            yield i, tuple(pairs)


def build_2coloring_instance(group: GroupModel, window: Ball, tsets: TSets,
                             n_max: int) -> LLLInstance:
    """Binary variables on the window positions; one event per fitting (n, g).

    The event for (n, g), with id (n, position of g), is violated when the
    restriction to g T_n equals the restriction to g s_n T_n under
    t -> s_n t; probability 2^(-C n), weight 2^(-C n / 2).
    """
    if n_max > tsets.levels:
        raise InputError("n_max exceeds available T-set levels")
    events: list[BadEvent] = []
    for n in range(1, n_max + 1):
        s, t_set = tsets.level(n)
        probability = two_coloring_probability(tsets.c, n)
        weight = two_coloring_weight(tsets.c, n)
        for i, pairs in fitting_pairs(group, window, s, t_set):
            first, second = zip(*pairs)
            events.append(BadEvent(
                id=(n, i),
                support=tuple(dict.fromkeys(p for pair in pairs
                                            for p in pair)),
                probability=probability,
                weight=weight,
                violated=equal_on(first, second),
            ))
    return LLLInstance(alphabet=(2,) * len(window), events=events)


@dataclass
class DistinctNeighborhoodReport:
    violations: list  # (n, g) pairs with equal restrictions
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_distinct_neighborhood(x: WindowConfig, tsets: TSets,
                                 n_max: int) -> DistinctNeighborhoodReport:
    """Exhaustive check of x|gT_n != x|g s_n T_n over all fitting (n, g).

    The comparison runs on the window's colour tuple; the report names
    each violation by its level and element.
    """
    members, colors = x.window.members, x.colors
    violations = []
    checked = 0
    for n in range(1, min(n_max, tsets.levels) + 1):
        s, t_set = tsets.level(n)
        for i, pairs in fitting_pairs(x.group, x.window, s, t_set):
            checked += 1
            if all(colors[u] == colors[v] for u, v in pairs):
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


def find_vertex_square(coloring: Sequence[int], w: Ball,
                       max_half_length: int) -> Optional[tuple]:
    """First enumerated odd path that is a vertex square, or None.

    ``coloring[i]`` is the color of position i of ``w``; paths are positions.
    """
    for path in enumerate_odd_paths(w, max_half_length):
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
    if alphabet_size < 2:
        raise InputError("alphabet must have at least 2 symbols")
    base = 8 * generator_count * generator_count
    halves = range(min(max_half_length, len(w) // 2) + 1)
    probability = [Quad(Fraction(1, alphabet_size ** n)) for n in halves]
    weight = [Quad(Fraction(1, base ** n)) for n in halves]
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
                violated=equal_on(path[:n], path[n:]),
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
