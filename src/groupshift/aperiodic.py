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

Each construction has one equality rule, a function of (support,
colouring): :func:`interleaved` pairs the even and odd places of a row of
:func:`fitting_pairs`, and :func:`halves` the two halves of a path of
:func:`enumerate_odd_paths`.  The event builders bind a rule to each
event's support with :func:`equal_on`, and the verifiers call it on the
window's colours, so the events and the checks compare the same places.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from types import MethodType
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Optional,
                    Sequence)

from .groups import (Ball, FrozenRecord, GroupModel, InputError, Record,
                     ResourceLimitError)
from .patterns import WindowConfig

if TYPE_CHECKING:  # imported by the builders: the checks load no resampler
    from .lll import LLLInstance

#: Largest length |w| of the least conjugate that :func:`witness_path`
#: walks: the walk holds 2|w| vertices, each of up to 2|w| letters in the
#: free groups and Z/2 * Z/3, so its size grows with |w|^2 (|w| = 1024:
#: at most about 4 * 10^6 letters).
WITNESS_LENGTH_LIMIT = 1 << 10


class TSets(FrozenRecord):
    """Test sets for the 2-coloring family: one (s_i, T_i) per level."""

    __slots__ = _fields = ("c", "entries")

    def __init__(self, c: int, entries: tuple):
        self._set(c, entries)  # entries: (s_i, T_i tuple) for i = 1, 2, ...

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


def fitting_pairs(group: GroupModel, window: Ball,
                  tsets: TSets) -> Iterator[tuple]:
    """The fitting (level, position) pairs, with their translated rows.

    For each level n of ``tsets`` and then each position i of the
    window, in order, yields ``(n, i, row)`` with ``row`` the flat tuple
    of the positions of g t_1, g s t_1, g t_2, g s t_2, ... over t_k in
    T_n, s = s_n, g = ``window.members[i]``, provided every product lies
    in the window; positions where g T_n or g s_n T_n leaves the window
    are skipped.  So ``row[0::2]`` is g T_n and ``row[1::2]`` is
    g s_n T_n, pair by pair.  This is the single definition of a fitting
    (n, g) shared by the instance builder and the distinct-neighborhood
    verifier.

    Right translation by h is a walk along a geodesic word of h on the
    ball's adjacency.  Column w (a tuple of step indices) holds the
    positions of members[i] w for the rows i below sizes[radius - |w|]:
    such a row lies within radius - |w| of the center, so every proper
    prefix of members[i] w lies within radius - 1, an interior vertex
    whose adjacency lists every step in step order.  Column w is then
    column w[:-1], which is never shorter, stepped by the last letter.
    One table of columns serves every level, so each prefix is walked,
    and each translate's word derived, once per call.  Rows beyond a
    column's reach take the product and its lookup, since a walk from
    there may leave the ball and come back in.  Such a row first tries
    the translate that ruled out the last row of its level that did not
    fit, which near the sphere often rules it out too; a hit is kept for
    its place in the row, so no product is taken twice.
    """
    mul, index, members = group.mul, window.index, window.members
    adjacency, radius, sizes = window.adjacency, window.radius, window.sizes
    step = {x: k for k, x in enumerate(group.step_elements())}
    # The index's own position ints: the events that keep them add none.
    positions = list(index.values())
    table = {(): positions}
    translates = {}  # h -> (its column, that column's reach), for all levels
    for n in range(1, tsets.levels + 1):
        s, t_set = tsets.level(n)
        hs = [h for t in t_set for h in (t, mul(s, t))]  # t, s t alternating
        for h in hs:
            if h in translates:
                continue
            word = tuple(step[group.gen(*letter)]
                         for letter in group.geodesic(h))
            if len(word) > radius:
                translates[h] = (), 0
                continue
            for j in range(1, len(word) + 1):
                prefix = word[:j]
                if prefix not in table:
                    table[prefix] = list(map(
                        itemgetter(prefix[-1]),
                        map(adjacency.__getitem__,
                            table[prefix[:-1]][:sizes[radius - j]])))
            translates[h] = table[word], sizes[radius - len(word)]
        columns = [translates[h][0] for h in hs]
        reach = [translates[h][1] for h in hs]
        full = min(reach, default=0)  # the rows that every column covers
        yield from zip(repeat(n), positions[:full], zip(*columns))
        miss = None  # the column that ruled out the last row that did not fit
        for i in positions[full:]:
            g, row = members[i], []
            if miss is not None:
                probe = (columns[miss][i] if i < reach[miss]
                         else index.get(mul(g, hs[miss])))
                if probe is None:
                    continue
            for k, (column, h, stop) in enumerate(zip(columns, hs, reach)):
                if i < stop:
                    p = column[i]
                elif k == miss:
                    p = probe
                else:
                    p = index.get(mul(g, h))
                if p is None:
                    miss = k
                    break
                row.append(p)
            else:
                yield n, i, tuple(row)


def interleaved(support: tuple, a: Sequence[int]) -> bool:
    """The 2-coloring rule: ``a`` agrees on the even and the odd places of
    ``support``, pairwise (g T_n against g s_n T_n, t by t).

    The first pair is compared alone, and almost always settles it; only
    when it agrees is the whole support read."""
    if a[support[0]] != a[support[1]]:
        return False
    c = itemgetter(*support)(a)
    return c[0::2] == c[1::2]


def equal_on(support: tuple, rule: Callable[[tuple, Sequence[int]], bool]
             ) -> Callable[[Sequence[int]], bool]:
    """The predicate ``a -> rule(support, a)``: ``rule`` (:func:`interleaved`
    or :func:`halves`) bound as a method of the event's own support, one
    small object that copies no position."""
    if len(support) < 2:  # itemgetter(v) returns a[v] itself, not a tuple
        raise InputError(f"equal_on needs at least 2 positions: {support}")
    return MethodType(rule, support)


def build_2coloring_instance(group: GroupModel, window: Ball,
                             tsets: TSets) -> LLLInstance:
    """Binary variables on the window positions; one event per fitting (n, g).

    The event for (n, g), with id (n, position of g), has the flat row of
    :func:`fitting_pairs` as its support.  It is violated when the
    restriction to g T_n, the row's even places, equals the restriction
    to g s_n T_n, its odd places, under t -> s_n t: its predicate is
    :func:`interleaved` bound to the row.  Probability 2^(-C n), weight
    2^(-C n / 2).  Events of one level share one probability and one
    weight.
    """
    from fractions import Fraction

    from .exact import Quad, half_power_of_two
    from .lll import BadEvent, LLLInstance
    c, levels = tsets.c, range(tsets.levels + 1)
    probability = [Quad(Fraction(1, 2 ** (c * n))) for n in levels]
    weight = [half_power_of_two(c * n) for n in levels]
    events = (BadEvent((n, i), row, probability[n], weight[n],
                       equal_on(row, interleaved))
              for n, i, row in fitting_pairs(group, window, tsets))
    return LLLInstance((2,) * len(window), events)


class DistinctNeighborhoodReport(Record):
    __slots__ = _fields = ("violations", "checked")

    def __init__(self, violations: list, checked: int):
        self.violations = violations  # (n, g) pairs with equal restrictions
        self.checked = checked

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_distinct_neighborhood(x: WindowConfig,
                                 tsets: TSets) -> DistinctNeighborhoodReport:
    """Exhaustive check of x|gT_n != x|g s_n T_n over all fitting (n, g).

    Each flat row of :func:`fitting_pairs` is compared on the window's
    colour tuple by :func:`interleaved`, the rule of the 2-coloring
    events: g T_n at its even places against g s_n T_n at its odd places.
    The report names each violation by its level and element.
    """
    members, colors = x.window.members, x.colors
    violations = []
    checked = 0
    for n, i, row in fitting_pairs(x.group, x.window, tsets):
        checked += 1
        if interleaved(row, colors):
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


def halves(support: tuple, a: Sequence[int]) -> bool:
    """The square-free rule: ``a`` agrees on the two halves of ``support``,
    place by place (a path of 2n vertices against its shift by n).

    The first pair, places 0 and n, is compared alone, as in
    :func:`interleaved`."""
    n = len(support) // 2
    if a[support[0]] != a[support[n]]:
        return False
    c = itemgetter(*support)(a)
    return c[:n] == c[n:]


def find_vertex_square(coloring: Sequence[int],
                       paths: Iterable[tuple]) -> Optional[tuple]:
    """First of ``paths`` that is a vertex square, or None.

    ``coloring[i]`` is the color of position i; paths are tuples of at
    least 2 positions, each compared by :func:`halves`, the rule of the
    square-free events.
    """
    for path in paths:
        if halves(path, coloring):
            return path
    return None


def build_squarefree_instance(w: Ball, alphabet_size: int,
                              max_half_length: int, generator_count: int,
                              budget: int = 10 ** 6) -> LLLInstance:
    """One event per odd path: probability |A|^-n, weight (8|S|^2)^-n.

    The variables are the window positions.  A simple path has distinct
    vertices, so it is its own support and has at most |w| of them.  The
    event of a path of 2n vertices is violated when its colours repeat
    under the shift by n: :func:`halves` bound to the path.
    Events of one half-length n share one probability and one weight.
    """
    from fractions import Fraction

    from .exact import Quad
    from .lll import BadEvent, LLLInstance
    if alphabet_size < 2:
        raise InputError("alphabet must have at least 2 symbols")
    base = 8 * generator_count * generator_count
    lengths = range(min(max_half_length, len(w) // 2) + 1)
    probability = [Quad(Fraction(1, alphabet_size ** n)) for n in lengths]
    weight = [Quad(Fraction(1, base ** n)) for n in lengths]

    def events() -> Iterator[BadEvent]:
        for k, path in enumerate(
                enumerate_odd_paths(w, max_half_length, budget)):
            n = len(path) // 2
            yield BadEvent((n, k), path, probability[n], weight[n],
                           equal_on(path, halves))
    return LLLInstance((alphabet_size,) * len(w), events())


class WitnessPath(FrozenRecord):
    """Conjugation walk certifying aperiodicity for one group element.

    trivial is True iff the input word equals the identity.  Otherwise
    ``word`` and ``conjugator`` are the letters of the minimal conjugate
    word w and of u (g = u w u^-1), and ``vertices`` is the walk
    v_0 .. v_{2n-1} built from w, asserted to be a simple path.
    """

    __slots__ = _fields = ("trivial", "word", "conjugator", "vertices")

    def __init__(self, trivial: bool, word: tuple = (),
                 conjugator: tuple = (), vertices: tuple = ()):
        self._set(trivial, word, conjugator, vertices)


def witness_path(group: GroupModel, word: str) -> WitnessPath:
    """Write g = u w u^-1 with w its least conjugate; walk along w w.

    ``group.least_conjugate`` gives w and u without search.  The walk is
    the first 2n prefixes of the word w w, n = |w|.  A w longer than
    :data:`WITNESS_LENGTH_LIMIT` raises ResourceLimitError before its
    geodesic is written out or walked.
    """
    g = group.canonicalize(word)
    if g == group.identity():
        return WitnessPath(trivial=True)
    w, u = group.least_conjugate(g)
    n = group.length(w)
    if n > WITNESS_LENGTH_LIMIT:
        raise ResourceLimitError(
            f"least conjugate of length {n} is above the witness limit of "
            f"{WITNESS_LENGTH_LIMIT}")
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
