"""Reference implementations that the tests compare against.

No command runs these; they are kept here, beside the tests that call
them, so that the package holds only what a command runs.  ROADMAP
items would give four of them a command: ``check_t_sets`` in item 4
(the group certificate), ``path_dependency_counts`` in item 6 (the
window's square-free alphabet scan), ``forbidden_check`` in item 7
(certified density along balls), and ``audit_event_probability`` in
item 2, as the oracle for re-derived event probabilities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from groupshift.aperiodic import TSets, enumerate_odd_paths
from groupshift.density import Slope
from groupshift.groups import (Ball, FrozenRecord, GroupModel, InputError,
                               IntegerLattice, Record, bfs)
from groupshift.lll import BadEvent, LLLInstance, neighbour_counts
from groupshift.patterns import WindowConfig, count_ones


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
    support = tuple(sorted(cells, key=group.canonical_key))
    return Pattern(support=support, symbols=tuple(cells[g] for g in support))


def distance(group: GroupModel, g, h) -> int:
    """Word-length distance |g^-1 h| in the Cayley graph."""
    return group.length(group.mul(group.inv(g), h))


def density_of(symbols) -> Fraction:
    """Exact fraction of ``symbols`` equal to 1; EmptySupportError when
    ``symbols`` is empty, since the density of an empty set is undefined."""
    symbols = list(symbols)
    if not symbols:
        raise EmptySupportError("density over an empty set is undefined")
    return Fraction(count_ones(symbols), len(symbols))


def oracle_measure_density(x: WindowConfig, sets, descriptors) -> list:
    """Exact densities of 1's over a sequence of element sets, each set
    read element by element through the window's index: the reference
    for ``density.measure_density``, which reads balls as prefixes of the
    colour tuple.  InputError when a set escapes the window,
    EmptySupportError when one is empty."""
    position, colors = x.window.index.__getitem__, x.colors.__getitem__
    entries = []
    for i, subset in enumerate(sets):
        subset = list(subset)
        if not subset:
            raise EmptySupportError(f"set {i} is empty: no density")
        try:
            ones = count_ones(map(colors, map(position, subset)))
        except KeyError:
            raise InputError(f"set {i} escapes the window") from None
        entries.append((descriptors[i], len(subset), ones,
                        Fraction(ones, len(subset))))
    return entries


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


class ForbiddenCheck(Record):
    __slots__ = _fields = ("allowed", "hypothesis_holds", "boundary_size",
                           "support_size", "deviation")

    def __init__(self, allowed: bool, hypothesis_holds: bool,
                 boundary_size: int, support_size: int,
                 deviation: Optional[Fraction]):
        self.allowed, self.hypothesis_holds = allowed, hypothesis_holds
        self.boundary_size, self.support_size = boundary_size, support_size
        self.deviation = deviation


def forbidden_check(x: WindowConfig, F, alpha: Slope, n: int,
                    ball_cap: int = 10 ** 6) -> ForbiddenCheck:
    """Evaluate the defining rule of the density subshift on one support.

    With K = B(1, 5^n): if 2n |bd_K F| < |F| then the density over F must
    be within 1/n of alpha; otherwise the pattern is vacuously allowed.
    """
    F = list(F)
    if any(g not in x for g in F):
        raise InputError("support escapes the window")
    if n < 1:
        raise InputError("n must be positive")
    k_ball = x.group.ball(radius=5 ** n, cap=ball_cap)
    _, boundary = interior_and_boundary(x.group, F, k_ball.members)
    hypothesis = 2 * n * len(boundary) < len(F)
    if not hypothesis:
        return ForbiddenCheck(True, False, len(boundary), len(F), None)
    deviation = abs(density_of(x[g] for g in F) - alpha.value)
    return ForbiddenCheck(
        allowed=deviation <= Fraction(1, n),
        hypothesis_holds=True,
        boundary_size=len(boundary),
        support_size=len(F),
        deviation=deviation,
    )


def audit_event_probability(inst: LLLInstance, event: BadEvent,
                            budget_bits: int = 24) -> Optional[Fraction]:
    """Exhaustively recount an event's probability when small enough.

    Returns None when the support state space exceeds 2**budget_bits.
    """
    sizes = [inst.alphabet[v] for v in event.support]
    total = 1
    for s in sizes:
        total *= s
        if total > 2 ** budget_bits:
            return None
    assignment = [0] * len(inst.alphabet)
    bad = 0
    for values in itertools.product(*map(range, sizes)):
        for v, a in zip(event.support, values):
            assignment[v] = a
        bad += event.violated(assignment)
    return Fraction(bad, total)


def check_instance(inst: LLLInstance) -> None:
    """The alphabet, position and id checks on a whole instance.

    Every alphabet size is an int >= 1, every support position an int in
    0..n-1 and no event id repeats.  The instance reader checks alphabets
    and ids as it reads them and cannot make a bad position, and the
    builders take their positions from the window; the tests run this on
    both.
    """
    n = len(inst.alphabet)
    for v, k in enumerate(inst.alphabet):
        if type(k) is not int or k < 1:  # bools are rejected too
            raise InputError(f"variable {v} has alphabet size {k!r}, "
                             "not an int >= 1")
    ids = set()
    for e in inst.events:
        for v in e.support:
            if type(v) is not int or not 0 <= v < n:
                raise InputError(
                    f"event {e.id} has support {v!r} outside 0..{n - 1}")
        if e.id in ids:
            raise InputError(f"event id {e.id} is repeated")
        ids.add(e.id)


def check_t_sets(group: GroupModel, tsets: TSets) -> None:
    """Re-verify both defining invariants by direct set arithmetic."""
    for i in range(1, tsets.levels + 1):
        s, t = tsets.level(i)
        if len(t) != tsets.c * i:
            raise InputError(f"|T_{i}| != C*{i}")
        shifted = {group.mul(s, x) for x in t}
        if shifted & set(t):
            raise InputError(f"T_{i} meets s_{i} T_{i}")


def path_dependency_counts(w: Ball, max_half_length: int,
                           budget: int = 10 ** 6) -> list[dict]:
    """For each odd path, count odd paths of each half-length sharing a vertex.

    Returns a list aligned with enumeration order; entry k maps j to the
    number of length-(2j-1) paths sharing at least one vertex with path k
    (excluding the path itself at its own level).
    """
    paths = list(enumerate_odd_paths(w, max_half_length, budget))
    return neighbour_counts(paths, [len(p) // 2 for p in paths], len(w))


def greedy_rnet(points, adjacency, r: int) -> list:
    """Greedy maximal r-separating subset; maximality makes it r-covering.

    Scans ``points`` in the given order; a point is admitted when its
    distance in the graph ``adjacency`` (anything that maps a vertex to
    its neighbors) to every earlier choice exceeds r.
    """
    chosen: list = []
    blocked: set = set()
    for p in points:
        if p in blocked:
            continue
        chosen.append(p)
        blocked.update(g for g, _ in bfs(p, adjacency.__getitem__, r))
    return chosen


def oracle_sturmian(alpha: Fraction, count: int, start: int = 0) -> list[int]:
    """Mechanical word bits floor((k+1)a) - floor(ka), exact arithmetic."""
    alpha = Fraction(alpha)
    bits = []
    prev = (start * alpha).__floor__()
    for k in range(start, start + count):
        cur = ((k + 1) * alpha).__floor__()
        bits.append(cur - prev)
        prev = cur
    return bits


# The equality rules of groupshift.aperiodic, interleaved and halves, as
# they were before each compared its first pair alone: one itemgetter
# tuple of the whole support, then one tuple comparison.  The events and
# both verifiers call those rules, so verify_distinct_neighborhood's row
# check is oracle_interleaved on (row, colors), and find_vertex_square's
# scan is oracle_halves on each path.

def oracle_interleaved(support: tuple, a) -> bool:
    """``a`` agrees on the even and the odd places of ``support``."""
    c = itemgetter(*support)(a)
    return c[0::2] == c[1::2]


def oracle_halves(support: tuple, a) -> bool:
    """``a`` agrees on the two halves of ``support``; never for an odd
    length, whose halves differ in length."""
    c = itemgetter(*support)(a)
    n = len(c) // 2
    return c[:n] == c[n:]


def oracle_vertex_square(coloring, path: tuple) -> bool:
    """The colours along ``path`` repeat under the shift by n =
    len(path) // 2; an odd path's last vertex is not compared."""
    n = len(path) // 2
    if not n:
        return True
    c = itemgetter(*path)(coloring)
    return c[:n] == c[n:2 * n]


def oracle_lattice_evaluate(group: IntegerLattice, letters) -> tuple:
    """A letter list in Z^d by one generator vector and one coordinatewise
    sum per letter, as IntegerLattice evaluated words before it summed
    exponents per axis."""
    g = (0,) * group.d
    for label, exp in letters:
        if label not in group.labels:
            raise InputError(f"unknown generator label {label!r}")
        v = [0] * group.d
        v[group.labels.index(label)] = exp
        g = tuple(x + y for x, y in zip(g, v))
    return g
