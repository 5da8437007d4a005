"""The two aperiodicity constructions.

First, the 2-coloring event family with the distinct-neighborhood
property: test sets T_i with T_i and s_i T_i disjoint, |T_i| = C*i, and
one bad event per (level n, position g) asserting equality of the two
translated restrictions.  Second, square-free vertex colorings of Cayley
graphs: odd-path enumeration, vertex-square detection and the conjugation
walk that turns a nontrivial stabilizer element into a square witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .exact import Quad
from .groups import GroupModel, InputError, ResourceLimitError
from .lll import (
    BadEvent,
    LLLInstance,
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


def fitting_pairs(group: GroupModel, positions, inside, s,
                  t_set) -> Iterator[tuple]:
    """The fitting positions of one level, with their translated pairs.

    For each g in ``positions``, in order, yields ``(g, pairs)`` with
    ``pairs`` the tuple of (g t, g s t) over t in ``t_set``, provided every
    pair lies in ``inside`` (any container supporting ``in``); positions
    where g T or g s T leaves ``inside`` are skipped.  This is the single
    definition of a fitting (n, g) shared by the instance builder and the
    distinct-neighborhood verifier.
    """
    shifted = [(t, group.mul(s, t)) for t in t_set]
    for g in positions:
        pairs = []
        for t, st in shifted:
            u = group.mul(g, t)
            v = group.mul(g, st)
            if u not in inside or v not in inside:
                break
            pairs.append((u, v))
        else:
            yield g, tuple(pairs)


def build_2coloring_instance(group: GroupModel, window_radius: int,
                             tsets: TSets, n_max: int) -> LLLInstance:
    """Binary variables on the window; one event per fitting (n, g).

    The event for (n, g) is violated when the restriction to g T_n equals
    the restriction to g s_n T_n under t -> s_n t; probability 2^(-C n),
    weight 2^(-C n / 2).
    """
    if n_max > tsets.levels:
        raise InputError("n_max exceeds available T-set levels")
    window = group.ball(radius=window_radius)
    index = {g: i for i, g in enumerate(window.members)}
    events: list[BadEvent] = []
    for n in range(1, n_max + 1):
        s, t_set = tsets.level(n)
        for g, pairs in fitting_pairs(group, window.members, window, s,
                                      t_set):
            support = tuple(dict.fromkeys(p for pair in pairs for p in pair))
            events.append(BadEvent(
                id=(n, index[g]),
                support=support,
                probability=two_coloring_probability(tsets.c, n),
                weight=two_coloring_weight(tsets.c, n),
                violated=lambda a, pairs=pairs: all(
                    a[u] == a[v] for u, v in pairs
                ),
            ))
    return LLLInstance(
        variables=window.members,
        alphabet={g: 2 for g in window.members},
        events=events,
    )


@dataclass
class DistinctNeighborhoodReport:
    violations: list  # (n, g) pairs with equal restrictions
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_distinct_neighborhood(x: WindowConfig, tsets: TSets,
                                 n_max: int) -> DistinctNeighborhoodReport:
    """Exhaustive check of x|gT_n != x|g s_n T_n over all fitting (n, g)."""
    violations = []
    checked = 0
    for n in range(1, min(n_max, tsets.levels) + 1):
        s, t_set = tsets.level(n)
        for g, pairs in fitting_pairs(x.group, x.window.members, x.cells, s,
                                      t_set):
            checked += 1
            if all(x.cells[u] == x.cells[v] for u, v in pairs):
                violations.append((n, g))
    return DistinctNeighborhoodReport(violations=violations, checked=checked)


@dataclass(frozen=True)
class PathWindow:
    """A Cayley-graph window: vertices plus symmetric adjacency."""

    vertices: tuple
    adjacency: dict

    @classmethod
    def from_ball(cls, group: GroupModel, radius: int) -> "PathWindow":
        ball = group.ball(radius=radius)
        return cls(vertices=ball.members, adjacency=group.adjacency(ball))


def enumerate_odd_paths(w: PathWindow, max_half_length: int,
                        budget: int = 10 ** 6) -> Iterator[tuple]:
    """Simple paths of odd edge-length <= 2*max_half_length - 1.

    Each path is emitted exactly once up to direction reversal (the end
    with the smaller vertex index comes first).  Raises InputError when
    max_half_length < 1 and ResourceLimitError when the budget is exceeded.
    """
    if max_half_length < 1:
        raise InputError(f"max half-length {max_half_length} is not positive")
    index = {v: i for i, v in enumerate(w.vertices)}
    max_vertices = 2 * max_half_length
    emitted = 0
    path: list = []
    on_path: set = set()

    def extend() -> Iterator[tuple]:
        nonlocal emitted
        if len(path) % 2 == 0 and index[path[0]] < index[path[-1]]:
            emitted += 1
            if emitted > budget:
                raise ResourceLimitError(
                    f"odd-path budget {budget} exceeded after {emitted - 1}"
                )
            yield tuple(path)
        if len(path) == max_vertices:
            return
        for nxt in w.adjacency[path[-1]]:
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield from extend()
            path.pop()
            on_path.remove(nxt)

    for start in w.vertices:
        path = [start]
        on_path = {start}
        yield from extend()


def is_vertex_square(coloring: dict, path: tuple) -> bool:
    """True when the color sequence is a square under the half shift."""
    n = len(path) // 2
    return all(coloring[path[i]] == coloring[path[i + n]] for i in range(n))


def find_vertex_square(coloring: dict, w: PathWindow,
                       max_half_length: int) -> Optional[tuple]:
    """First enumerated odd path that is a vertex square, or None."""
    for path in enumerate_odd_paths(w, max_half_length):
        if is_vertex_square(coloring, path):
            return path
    return None


def build_squarefree_instance(w: PathWindow, alphabet_size: int,
                              max_half_length: int, generator_count: int,
                              budget: int = 10 ** 6) -> LLLInstance:
    """One event per odd path: probability |A|^-n, weight (8|S|^2)^-n."""
    if alphabet_size < 2:
        raise InputError("alphabet must have at least 2 symbols")
    base = 8 * generator_count * generator_count
    events = []
    for k, path in enumerate(enumerate_odd_paths(w, max_half_length, budget)):
        n = len(path) // 2
        events.append(BadEvent(
            id=(n, k),
            support=tuple(dict.fromkeys(path)),
            probability=Quad(Fraction(1, alphabet_size ** n)),
            weight=Quad(Fraction(1, base ** n)),
            violated=lambda a, path=path, n=n: all(
                a[path[i]] == a[path[i + n]] for i in range(n)
            ),
        ))
    return LLLInstance(
        variables=w.vertices,
        alphabet={v: alphabet_size for v in w.vertices},
        events=events,
    )


def path_dependency_counts(w: PathWindow, max_half_length: int,
                           budget: int = 10 ** 6) -> list[dict]:
    """For each odd path, count odd paths of each half-length sharing a vertex.

    Returns a list aligned with enumeration order; entry k maps j to the
    number of length-(2j-1) paths sharing at least one vertex with path k
    (excluding the path itself at its own level).
    """
    paths = list(enumerate_odd_paths(w, max_half_length, budget))
    return neighbour_counts(paths, [len(p) // 2 for p in paths])


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
