"""Covering forests, Sturmian filling and density verification.

The construction: starting from a Cayley-graph window, repeatedly take a
greedy maximal 2-separating (hence 2-covering) subset, assign parents
within quotient-graph distance 2, and connect centers whose clusters are
adjacent.  A Sturmian word laid along a convex enumeration of each
component's leaves then pins the ones-count of every cluster to within
one of its proportional share.

All guarantees are intrinsic to the window: cluster upper bounds hold for
every center, while lower bounds (and the aggregate density bound built
on them) are only asserted for centers whose level-n ball stays inside
the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .groups import Ball, GroupModel, InputError, bfs
from .patterns import WindowConfig, density_of, interior_and_boundary


@dataclass(frozen=True)
class Slope:
    """An exact rational slope in [0,1], with its provenance recorded."""

    value: Fraction
    provenance: str = "exact"

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise InputError("slope must lie in [0,1]")

    @classmethod
    def parse(cls, text: str) -> "Slope":
        text = text.strip()
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed slope {text!r}") from None
        if "/" in text or text.lstrip("+-").isdigit():
            return cls(value)
        # Decimal input: replace by a continued-fraction convergent.
        approx = value.limit_denominator(2 ** 31)
        return cls(approx, provenance=f"convergent of {text}")

    def __str__(self) -> str:
        return str(self.value)


def graph_bfs_within(adjacency: dict, start, radius: int) -> dict:
    """Distances from start up to radius in an adjacency-dict graph."""
    return dict(bfs(start, adjacency.__getitem__, radius))


def greedy_rnet(points, adjacency: dict, r: int) -> list:
    """Greedy maximal r-separating subset; maximality makes it r-covering.

    Scans ``points`` in the given order; a point is admitted when its
    graph distance to every earlier choice exceeds r.
    """
    chosen: list = []
    blocked: set = set()
    for p in points:
        if p in blocked:
            continue
        chosen.append(p)
        blocked.update(graph_bfs_within(adjacency, p, r))
    return chosen


@dataclass
class ForestLevel:
    centers: tuple            # A_n, in scan order
    edges: dict               # quotient-graph adjacency on centers
    parent: Optional[dict]    # A_{n-1} element -> center (None at level 0)


@dataclass
class CoveringForest:
    group: GroupModel
    window: Ball
    levels: list[ForestLevel]          # index 0 .. n_max
    leaf_parent: list[dict]            # p_n : window -> A_n, per level
    clusters: list[dict]               # level -> center -> tuple of leaves

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def children(self) -> list[dict]:
        """Level n -> center -> its canonically sorted level-(n-1) children.

        Every center is its own parent, hence one of its own children.
        """
        out: list[dict] = [{}]
        for level in self.levels[1:]:
            kids: dict = {}
            for child in sorted(level.parent, key=self.group.canonical_key):
                kids.setdefault(level.parent[child], []).append(child)
            out.append(kids)
        return out

    def cluster(self, n: int, g) -> tuple:
        return self.clusters[n][g]

    def interior_centers(self, n: int) -> list:
        """Centers whose level-n ball stays inside the window.

        This is the margin the cluster lower bound B(g, n) <= C_n(g)
        needs; the upper bound holds for every center.
        """
        return [g for g in self.levels[n].centers
                if all(h in self.window
                       for h in self.group.ball(center=g, radius=n).members)]


def build_forest(group: GroupModel, window_radius: int,
                 levels: int) -> CoveringForest:
    """Build the covering forest on a window, level by level."""
    if levels < 1:
        raise InputError("need at least one level")
    window = group.ball(radius=window_radius)
    cayley = group.adjacency(window)

    level0 = ForestLevel(centers=window.members, edges=cayley, parent=None)
    forest_levels = [level0]
    leaf_parent = [{g: g for g in window.members}]
    clusters = [{g: (g,) for g in window.members}]

    for n in range(1, levels + 1):
        prev = forest_levels[-1]
        centers = greedy_rnet(prev.centers, prev.edges, 2)
        if not centers:
            raise InputError(f"level {n} is empty; enlarge the window")
        center_set = set(centers)

        parent: dict = {}
        for g in prev.centers:
            if g in center_set:
                parent[g] = g
                continue
            dist = graph_bfs_within(prev.edges, g, 2)
            at_one = [h for h in dist if dist[h] == 1 and h in center_set]
            if at_one:
                if len(at_one) > 1:
                    raise AssertionError("2-separation violated")
                parent[g] = at_one[0]
                continue
            at_two = [h for h in dist if dist[h] == 2 and h in center_set]
            if not at_two:
                raise AssertionError("2-covering violated")
            parent[g] = min(at_two, key=group.canonical_key)

        p_n = {leaf: parent[p] for leaf, p in leaf_parent[-1].items()}
        cluster_map: dict = {c: [] for c in centers}
        for leaf in window.members:
            cluster_map[p_n[leaf]].append(leaf)
        cluster_map = {c: tuple(v) for c, v in cluster_map.items()}

        edges: dict = {c: set() for c in centers}
        for g in window.members:
            cg = p_n[g]
            for h in cayley[g]:
                ch = p_n[h]
                if cg != ch:
                    edges[cg].add(ch)
                    edges[ch].add(cg)
        edges = {c: tuple(sorted(v, key=group.canonical_key))
                 for c, v in edges.items()}

        forest_levels.append(ForestLevel(
            centers=tuple(centers), edges=edges, parent=parent
        ))
        leaf_parent.append(p_n)
        clusters.append(cluster_map)

    return CoveringForest(
        group=group, window=window, levels=forest_levels,
        leaf_parent=leaf_parent, clusters=clusters,
    )


def convex_enumeration(f: CoveringForest, component) -> list:
    """Depth-first leaf order below a top-level center.

    Children are visited in canonical order, so the descendant leaves of
    every node occupy a contiguous interval of the output.
    """
    top = f.depth
    if component not in f.clusters[top]:
        raise InputError("unknown top-level component")

    def leaves(node, n: int) -> list:
        if n == 0:
            return [node]
        return [leaf for child in f.children[n][node]
                for leaf in leaves(child, n - 1)]

    return leaves(component, top)


def sturmian(alpha: Fraction, count: int, start: int = 0) -> list[int]:
    """Mechanical word bits floor((k+1)a) - floor(ka), exact arithmetic."""
    alpha = Fraction(alpha)
    bits = []
    prev = (start * alpha).__floor__()
    for k in range(start, start + count):
        cur = ((k + 1) * alpha).__floor__()
        bits.append(cur - prev)
        prev = cur
    return bits


def fill_density(f: CoveringForest, alpha: Slope) -> WindowConfig:
    """Lay a Sturmian word of slope alpha along each component's leaves."""
    a = alpha.value
    cells: dict = {}
    top_centers = sorted(f.levels[f.depth].centers, key=f.group.canonical_key)
    for center in top_centers:
        order = convex_enumeration(f, center)
        for bit, leaf in zip(sturmian(a, len(order)), order):
            cells[leaf] = bit
    return WindowConfig(
        group=f.group, radius=f.window.radius, cells=cells,
        alphabet_size=2, window=f.window,
    )


@dataclass
class ClusterCheck:
    level: int
    center: object
    size: int
    floor_share: int
    ones: int

    @property
    def ok(self) -> bool:
        return self.floor_share <= self.ones <= self.floor_share + 1


@dataclass
class AggregateCheck:
    level: int
    union_size: int
    center_count: int
    dens: Fraction
    bound: Fraction  # |V| / |U|
    alpha: Fraction

    @property
    def ok(self) -> bool:
        return abs(self.dens - self.alpha) <= self.bound


@dataclass
class Condition1Report:
    clusters: list[ClusterCheck]
    aggregates: list[AggregateCheck]

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.clusters)
                and all(a.ok for a in self.aggregates))


def verify_condition1(x: WindowConfig, f: CoveringForest,
                      alpha: Slope) -> Condition1Report:
    """Exact per-interior-cluster share check plus aggregate density bound."""
    if x.window.radius != f.window.radius:
        raise InputError("configuration window does not match forest window")
    a = alpha.value
    cluster_checks = []
    aggregates = []
    for n in range(1, f.depth + 1):
        interior = f.interior_centers(n)
        union: list = []
        for g in interior:
            cl = f.cluster(n, g)
            ones = int(density_of(x.cells[h] for h in cl) * len(cl))
            cluster_checks.append(ClusterCheck(
                level=n, center=g, size=len(cl),
                floor_share=(a * len(cl)).__floor__(), ones=ones,
            ))
            union.extend(cl)
        if union:
            aggregates.append(AggregateCheck(
                level=n, union_size=len(union), center_count=len(interior),
                dens=density_of(x.cells[h] for h in union),
                bound=Fraction(len(interior), len(union)), alpha=a,
            ))
    return Condition1Report(clusters=cluster_checks, aggregates=aggregates)


@dataclass
class ForbiddenCheck:
    allowed: bool
    hypothesis_holds: bool
    boundary_size: int
    support_size: int
    deviation: Optional[Fraction]


def forbidden_check(x: WindowConfig, F, alpha: Slope, n: int,
                    ball_cap: int = 10 ** 6) -> ForbiddenCheck:
    """Evaluate the defining rule of the density subshift on one support.

    With K = B(1, 5^n): if 2n |bd_K F| < |F| then the density over F must
    be within 1/n of alpha; otherwise the pattern is vacuously allowed.
    """
    F = list(F)
    if any(g not in x.cells for g in F):
        raise InputError("support escapes the window")
    if n < 1:
        raise InputError("n must be positive")
    k_ball = x.group.ball(radius=5 ** n, cap=ball_cap)
    _, boundary = interior_and_boundary(x.group, F, k_ball.members)
    hypothesis = 2 * n * len(boundary) < len(F)
    if not hypothesis:
        return ForbiddenCheck(True, False, len(boundary), len(F), None)
    deviation = abs(density_of(x.cells[g] for g in F) - alpha.value)
    return ForbiddenCheck(
        allowed=deviation <= Fraction(1, n),
        hypothesis_holds=True,
        boundary_size=len(boundary),
        support_size=len(F),
        deviation=deviation,
    )


@dataclass
class DensityReport:
    entries: list  # (descriptor, size, ones, dens)
    alpha: Optional[Fraction] = None

    def deviations(self) -> list:
        if self.alpha is None:
            return []
        return [abs(dens - self.alpha) for _, _, _, dens in self.entries]


def measure_density(x: WindowConfig, sets, alpha: Optional[Slope] = None,
                    descriptors=None) -> DensityReport:
    """Exact densities of 1's over a sequence of element sets."""
    entries = []
    for i, subset in enumerate(sets):
        subset = list(subset)
        if any(g not in x.cells for g in subset):
            raise InputError(f"set {i} escapes the window")
        dens = density_of(x.cells[g] for g in subset)
        desc = descriptors[i] if descriptors else f"set-{i}"
        entries.append((desc, len(subset), int(dens * len(subset)), dens))
    return DensityReport(
        entries=entries, alpha=None if alpha is None else alpha.value
    )


def ball_sequence(x: WindowConfig, radii) -> tuple[list, list]:
    """Balls B(1, r) for r in radii, as (sets, descriptors).

    Each is a prefix of the window's members; no ball is searched again.
    """
    sets, descs = [], []
    for r in radii:
        if r < 0:
            raise InputError(f"ball radius {r} is negative")
        if r > x.window.radius:
            raise InputError(f"ball radius {r} exceeds window")
        sets.append(x.window.members[:x.window.sizes[r]])
        descs.append(f"B(1,{r})")
    return sets, descs
