"""Covering forests, Sturmian filling and density verification.

The construction reads one graph, the Cayley graph induced on the window
ball, and runs on the ball's positions: centers, parents and quotient
edges are ints, ordered by the canonical keys of their members, and the
members map them back to elements only where a fill or forest is
written.  Each level scans the previous level's centers once.  A point
that no earlier search has reached becomes a center, so the centers form
a maximal 2-separating (hence 2-covering) subset.  That one radius-2
search also offers the center as parent to every point it reaches, and
each point keeps its nearest center (least on a tie).  Centers whose
clusters are adjacent are then connected.
The parent maps are the forest's only record of its hierarchy: a
cluster (the leaves below a center) and the quotient edges of each
level are read off them.  A Sturmian word laid along a convex
enumeration of each component's leaves then pins the ones-count of
every cluster to within one of its proportional share.

All guarantees are intrinsic to the window: cluster upper bounds hold for
every center, while lower bounds (and the aggregate density bound built
on them) are only asserted for centers whose level-n ball stays inside
the window, a test made on the window's graph.

The density along balls reads B(1, r) as the first |B(1, r)| places of
the window's colour tuple: a window is a ball about the identity, its
members in BFS order.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .groups import Ball, FrozenRecord, GroupModel, InputError, Record, bfs
from .patterns import WindowConfig, count_ones


class Slope(FrozenRecord):
    """An exact rational slope in [0,1]."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        if not 0 <= value <= 1:
            raise InputError("slope must lie in [0,1]")
        self._set(value)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        text = text.strip()
        decimal = "/" not in text and not text.lstrip("+-").isdigit()
        try:
            # Decimal reads the exponent that Fraction would expand first.
            # Below 10^-10 (scale < -10) the convergent is 0, and from 10 up
            # (scale > 0) the slope lies outside [0, 1].
            number = Decimal(text if decimal else 1)
            scale = number.adjusted() if number else -11  # 0 for NaN, inf
            value = (Fraction(0) if scale < -10 else Fraction(10) if scale > 0
                     else Fraction(text))
        except (ArithmeticError, ValueError) as exc:
            # Fraction checks the syntax before int() can meet its digit
            # limit (4,300 digits by default).
            if (isinstance(exc, ValueError)
                    and not str(exc).startswith("Invalid literal")):
                raise InputError(f"slope {text!r:.40} has a number beyond "
                                 "int's digit limit") from None
            raise InputError(f"malformed slope {text!r}") from None
        # Decimal input: replace by a continued-fraction convergent.
        return cls(value.limit_denominator(2 ** 31) if decimal else value)


class ForestLevel(Record):
    """Level n of a forest: ``centers``, A_n as window positions in scan
    order; ``edges``, the quotient-graph adjacency center -> centers; and
    ``parent``, A_{n-1} position -> center (None at level 0)."""

    __slots__ = _fields = ("centers", "edges", "parent")

    def __init__(self, centers: Sequence[int], edges: Sequence,
                 parent: Optional[dict]):
        self.centers, self.edges, self.parent = centers, edges, parent


class CoveringForest(Record):
    """The levels 0 .. depth of a covering forest on ``window``.  No
    ``__slots__``: the cached properties live in the instance dict."""

    _fields = ("group", "window", "levels")

    def __init__(self, group: GroupModel, window: Ball,
                 levels: list[ForestLevel]):
        self.group, self.window, self.levels = group, window, levels

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def keys(self) -> list:
        """The canonical_key of each window member, by position."""
        return list(map(self.group.canonical_key, self.window.members))

    @cached_property
    def children(self) -> list[dict]:
        """Level n -> center -> its canonically sorted level-(n-1) children.

        Every center is its own parent, hence one of its own children.
        """
        out: list[dict] = [{}]
        for level in self.levels[1:]:
            kids: dict = {}
            for child in sorted(level.parent, key=self.keys.__getitem__):
                kids.setdefault(level.parent[child], []).append(child)
            out.append(kids)
        return out

    def cluster(self, n: int, g: int) -> list[int]:
        """The leaves below center g of level n, children in canonical order.

        Each step down keeps the order, so the leaves below every node
        occupy a contiguous interval of the output.
        """
        nodes = [g]
        for m in range(n, 0, -1):
            nodes = [c for h in nodes for c in self.children[m][h]]
        return nodes

    def interior_centers(self, n: int) -> list[int]:
        """Centers whose level-n ball stays inside the window.

        This is the margin the cluster lower bound B(g, n) <= C_n(g)
        needs; the upper bound holds for every center.  B(g, n) lies in
        the window exactly when every vertex within window distance n - 1
        of g keeps all its neighbors there: a geodesic from g that leaves
        the window takes its first outside step from such a vertex.
        """
        adjacency = self.window.adjacency
        degree = len(self.group.step_elements())
        return [g for g in self.levels[n].centers
                if all(len(adjacency[h]) == degree
                       for h, d in bfs(g, adjacency.__getitem__, n) if d < n)]


def build_forest(group: GroupModel, window: Ball,
                 levels: int) -> CoveringForest:
    """Build the covering forest on a window, level by level.

    Centers, parents and edges are positions of ``window``; level 0 is
    the window's Cayley graph.
    """
    if levels < 1:
        raise InputError("need at least one level")
    forest = CoveringForest(group=group, window=window, levels=[ForestLevel(
        centers=range(len(window)), edges=window.adjacency, parent=None)])
    canonical = forest.keys.__getitem__

    for n in range(1, levels + 1):
        prev = forest.levels[-1]
        # parent: the least (distance, canonical_key) center within 2;
        # every center reaches itself at distance 0.
        centers: list = []
        near: dict = {}  # g -> (distance, canonical_key, center)
        for c in prev.centers:
            if c in near:  # an earlier center lies within distance 2
                continue
            centers.append(c)
            key = canonical(c)
            for g, d in bfs(c, prev.edges.__getitem__, 2):
                offer = (d, key, c)
                if g not in near or offer < near[g]:
                    near[g] = offer
        parent = {g: near[g][2] for g in prev.centers}

        # A level-n cluster is the union of its children's clusters, so two
        # touch iff children of theirs do.  By induction from level 0 (the
        # window's Cayley graph), prev.edges join exactly the touching
        # level-(n-1) clusters, so their ends mapped by parent give level n's.
        edges: dict = {c: set() for c in centers}
        for a in prev.centers:
            pa = parent[a]
            for b in prev.edges[a]:  # symmetric: b's pass adds pa
                if pa != parent[b]:
                    edges[pa].add(parent[b])
        edges = {c: tuple(sorted(v, key=canonical))
                 for c, v in edges.items()}

        forest.levels.append(ForestLevel(
            centers=tuple(centers), edges=edges, parent=parent
        ))

    return forest


def convex_enumeration(f: CoveringForest, component) -> list:
    """Depth-first leaf order below a top-level center.

    Children are visited in canonical order, so the descendant leaves of
    every node occupy a contiguous interval of the output.
    """
    if component not in f.children[f.depth]:
        raise InputError("unknown top-level component")
    return f.cluster(f.depth, component)


def sturmian(alpha: Fraction, count: int) -> list[int]:
    """Mechanical word bits floor((k+1)a) - floor(ka), as integer floors
    of a = p/q."""
    p, q = alpha.numerator, alpha.denominator
    return [(k + 1) * p // q - k * p // q
            for k in range(count)]


def fill_density(f: CoveringForest, alpha: Slope) -> WindowConfig:
    """Lay a Sturmian word of slope alpha along each component's leaves."""
    a = alpha.value
    colors = [0] * len(f.window)
    for center in sorted(f.levels[f.depth].centers, key=f.keys.__getitem__):
        order = convex_enumeration(f, center)
        for bit, leaf in zip(sturmian(a, len(order)), order):
            colors[leaf] = bit
    return WindowConfig(f.group, f.window, tuple(colors), 2)


class ClusterCheck(Record):
    __slots__ = _fields = ("level", "center", "size", "floor_share", "ones")

    def __init__(self, level: int, center: object, size: int,
                 floor_share: int, ones: int):
        self.level, self.center, self.size = level, center, size
        self.floor_share, self.ones = floor_share, ones

    @property
    def ok(self) -> bool:
        return self.floor_share <= self.ones <= self.floor_share + 1


class AggregateCheck(Record):
    __slots__ = _fields = ("level", "union_size", "center_count", "dens",
                           "bound", "alpha")

    def __init__(self, level: int, union_size: int, center_count: int,
                 dens: Fraction, bound: Fraction, alpha: Fraction):
        self.level, self.union_size = level, union_size
        self.center_count, self.dens = center_count, dens
        self.bound, self.alpha = bound, alpha  # bound = |V| / |U|

    @property
    def ok(self) -> bool:
        return abs(self.dens - self.alpha) <= self.bound


class Condition1Report(Record):
    __slots__ = _fields = ("clusters", "aggregates")

    def __init__(self, clusters: list[ClusterCheck],
                 aggregates: list[AggregateCheck]):
        self.clusters, self.aggregates = clusters, aggregates

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.clusters)
                and all(a.ok for a in self.aggregates))


def verify_condition1(x: WindowConfig, f: CoveringForest,
                      alpha: Slope) -> Condition1Report:
    """Exact per-interior-cluster share check plus aggregate density bound;
    the report names each center by its element."""
    if x.window != f.window:
        raise InputError("configuration window does not match forest window")
    a = alpha.value
    p, q = a.numerator, a.denominator
    members, colors = f.window.members, x.colors
    cluster_checks = []
    aggregates = []
    for n in range(1, f.depth + 1):
        interior = f.interior_centers(n)
        union_size = union_ones = 0  # the level's clusters are disjoint
        for g in interior:
            cl = f.cluster(n, g)
            ones = count_ones(colors[h] for h in cl)
            cluster_checks.append(ClusterCheck(
                level=n, center=members[g], size=len(cl),
                floor_share=p * len(cl) // q, ones=ones,
            ))
            union_size += len(cl)
            union_ones += ones
        if union_size:
            aggregates.append(AggregateCheck(
                level=n, union_size=union_size, center_count=len(interior),
                dens=Fraction(union_ones, union_size),
                bound=Fraction(len(interior), union_size), alpha=a,
            ))
    return Condition1Report(clusters=cluster_checks, aggregates=aggregates)


def measure_density(x: WindowConfig, balls) -> list[tuple]:
    """Exact densities of 1's over the (descriptor, size) balls of
    :func:`ball_sequence`, each the first ``size`` places of the colour
    tuple: (descriptor, size, ones, density) entries."""
    entries = []
    for desc, size in balls:
        ones = count_ones(x.colors[:size])
        entries.append((desc, size, ones, Fraction(ones, size)))
    return entries


def ball_sequence(x: WindowConfig, radii) -> list[tuple[str, int]]:
    """Balls B(1, r) for r in radii, as (descriptor, |B(1, r)|) pairs.

    Each is a prefix of the window's members; no ball is searched again.
    """
    balls = []
    for r in radii:
        if r < 0:
            raise InputError(f"ball radius {r} is negative")
        if r > x.window.radius:
            raise InputError(f"ball radius {r} exceeds window")
        balls.append((f"B(1,{r})", x.window.sizes[r]))
    return balls
