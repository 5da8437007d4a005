import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupshift.groups import (
    DiscreteHeisenberg,
    FreeGroup,
    FreeProductZ2Z3,
    InputError,
    IntegerLattice,
    bfs,
)
from groupshift import density
from groupshift.patterns import WindowConfig
from groupshift.density import (
    Slope,
    ball_sequence,
    build_forest,
    convex_enumeration,
    fill_density,
    measure_density,
    sturmian,
    verify_condition1,
)
from oracles import (forbidden_check, greedy_rnet,
                     oracle_measure_density, oracle_sturmian)


def path_adjacency(n):
    return {i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n)
            for i in range(n)}


def graph_bfs_within(adjacency, start, radius):
    """The distance map the forest read before it called bfs: distances
    from start up to radius, one frontier at a time."""
    dist, frontier = {start: 0}, [start]
    for d in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for h in adjacency[g]:
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
        frontier = nxt
    return dist


def forest(group, radius, levels):
    """The covering forest on B(1, radius)."""
    return build_forest(group, group.ball(radius=radius), levels)


def canonical(f):
    """Sort key of window positions: the canonical key of their members."""
    return lambda i: f.group.canonical_key(f.window.members[i])


# Two window radii per model, small enough for a three-level forest.
FOREST_CASES = [
    (IntegerLattice(1), 10), (IntegerLattice(1), 25),
    (IntegerLattice(2), 8), (IntegerLattice(2), 14),
    (FreeGroup(2), 3), (FreeGroup(2), 5),
    (FreeProductZ2Z3(), 6), (FreeProductZ2Z3(), 9),
    (DiscreteHeisenberg(), 4), (DiscreteHeisenberg(), 6),
]


def oracle_parents(f, n):
    """The per-non-center search build_forest replaced: a center is its
    own parent, else the one center at distance 1, else the least center
    at distance 2 under canonical_key of its member."""
    prev, centers = f.levels[n - 1], set(f.levels[n].centers)
    parent = {}
    for g in prev.centers:
        if g in centers:
            parent[g] = g
            continue
        dist = graph_bfs_within(prev.edges, g, 2)
        at_one = [h for h in dist if dist[h] == 1 and h in centers]
        if at_one:
            assert len(at_one) == 1
            parent[g] = at_one[0]
            continue
        at_two = [h for h in dist if dist[h] == 2 and h in centers]
        parent[g] = min(at_two, key=canonical(f))
    return parent


def oracle_clusters_and_edges(f):
    """The window-wide computation build_forest replaced: a leaf -> level-n
    center map p_n, its fibres as clusters (in window order), and for every
    window edge g-h with p_n[g] != p_n[h] the quotient edge p_n[g]-p_n[h].
    Returns one (clusters, edges) pair per level n >= 1."""
    window = f.window
    p_n = list(range(len(window)))
    out = []
    for level in f.levels[1:]:
        p_n = [level.parent[p] for p in p_n]
        clusters = {c: [] for c in level.centers}
        for leaf, center in enumerate(p_n):
            clusters[center].append(leaf)
        edges = {c: set() for c in level.centers}
        for g, nbrs in enumerate(window.adjacency):
            for h in nbrs:
                if p_n[g] != p_n[h]:
                    edges[p_n[g]].add(p_n[h])
        out.append((clusters, {c: tuple(sorted(v, key=canonical(f)))
                               for c, v in edges.items()}))
    return out


def oracle_interior_centers(f, n):
    """The group.ball test interior_centers replaced."""
    members = f.window.members
    return [g for g in f.levels[n].centers
            if set(f.group.ball(center=members[g], radius=n).members)
            <= set(members)]


def all_ones_window(group, radius):
    window = group.ball(radius=radius)
    return WindowConfig(group=group, window=window,
                        colors=(1,) * len(window), alphabet_size=2)


class TestSlope:
    def test_value_is_read_only(self):
        s = Slope(value=Fraction(1, 2))
        with pytest.raises(AttributeError):
            s.value = Fraction(2)
        assert s == Slope.parse("1/2") and hash(s) == hash(Slope.parse("1/2"))

    def test_exact_rational(self):
        s = Slope.parse("377/610")
        assert s.value == Fraction(377, 610)

    def test_decimal_becomes_convergent(self):
        s = Slope.parse("0.5")
        assert s.value == Fraction(1, 2)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Slope.parse("3/2")

    @given(st.sampled_from(["", "-", "+"]),
           st.sampled_from(["0", "1", "9", "0.5", "233", "0.0003", "2.3283064",
                            "2.3283064365", "4.6566128", "1.2e", "nan", "inf"]),
           st.integers(-14, 3))
    def test_decimal_is_the_convergent_of_its_fraction(self, sign, digits, x):
        # 2.3283064365e-10 lies next to 2^-32, half the least nonzero
        # convergent 2^-31: the scale shortcut must agree on both sides.
        text = f"{sign}{digits}e{x}"
        try:
            expected = Fraction(text).limit_denominator(2 ** 31)
        except ValueError:
            with pytest.raises(InputError, match="malformed"):
                Slope.parse(text)
            return
        if 0 <= expected <= 1:
            assert Slope.parse(text).value == expected
        else:
            with pytest.raises(InputError, match=r"\[0,1\]"):
                Slope.parse(text)

    @pytest.mark.parametrize("text", ["1/" + "9" * 5000, "1" + "0" * 5000,
                                      "0." + "1" * 5000])
    def test_slope_beyond_the_int_digit_limit_names_it(self, text):
        # Well formed, in [0, 1] or not: Fraction(text) stops at int's digit
        # limit, which used to be reported as "malformed slope".
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int has no digit limit before Python 3.10.7")
        with pytest.raises(InputError, match="digit limit"):
            Slope.parse(text)

    @pytest.mark.parametrize("text, value", [
        ("1e-100000000", 0), ("-1e-100000000", 0), ("0e100000000", 0),
        ("0e-100000000", 0), ("1e100000000", None), ("-1e100000000", None)])
    def test_decimal_exponent_is_read_before_the_digits(self, text, value):
        # Fraction(text) builds 10**100000000 first.
        if value is None:
            with pytest.raises(InputError, match=r"\[0,1\]"):
                Slope.parse(text)
        else:
            assert Slope.parse(text).value == value


class TestGreedyRnet:
    def test_path_graph(self):
        assert greedy_rnet(range(7), path_adjacency(7), 2) == [0, 3, 6]

    def test_single_point(self):
        assert greedy_rnet([5], {5: ()}, 3) == [5]

    def test_z_window(self):
        z = IntegerLattice(1)
        window = z.ball(radius=10)
        adjacency = {
            g: tuple(h for h in z.neighbors(g) if h in window)
            for g in window.members
        }
        net = greedy_rnet(window.members, adjacency, 2)
        assert set(net) == {(k,) for k in (0, 3, -3, 6, -6, 9, -9)}
        # The same scan on window positions picks the same points.
        on_positions = greedy_rnet(range(len(window)), window.adjacency, 2)
        assert [window.members[i] for i in on_positions] == net

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_separation_and_maximality(self, r):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=7)
        adjacency = {
            g: tuple(h for h in z2.neighbors(g) if h in window)
            for g in window.members
        }
        net = greedy_rnet(window.members, adjacency, r)
        covered = {}
        for p in net:
            for q, d in graph_bfs_within(adjacency, p, r).items():
                covered.setdefault(q, []).append((p, d))
        for p in net:  # r-separation, brute force over pairs
            for q in net:
                if p != q:
                    assert q not in graph_bfs_within(adjacency, p, r)
        for g in window.members:  # maximality = r-covering
            assert g in covered


class TestForest:
    def test_z_hand_trace(self):
        f = forest(IntegerLattice(1), 10, 1)
        m, at = f.window.members, f.window.index
        level1 = f.levels[1]
        assert {m[c] for c in level1.centers} == {
            (k,) for k in (0, 3, -3, 6, -6, 9, -9)}
        assert {m[h] for h in f.cluster(1, at[(0,)])} == {(0,), (1,), (-1,)}
        assert {m[c] for c in level1.edges[at[(0,)]]} == {(3,), (-3,)}
        assert {m[c] for c in level1.edges[at[(9,)]]} == {(6,)}
        assert {m[h] for h in f.cluster(1, at[(9,)])} == {(8,), (9,), (10,)}

    def test_level0_is_the_window_graph(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=6)
        f = build_forest(z2, window, 1)
        assert f.window is window
        assert list(f.levels[0].centers) == list(range(len(window)))
        assert f.levels[0].edges is window.adjacency

    @pytest.mark.parametrize("group,radius", [
        (IntegerLattice(1), 15),
        (IntegerLattice(2), 12),
        (FreeGroup(2), 4),
    ])
    def test_invariants(self, group, radius):
        f = forest(group, radius, 2)
        for n in range(1, 3):
            level = f.levels[n]
            prev = f.levels[n - 1]
            centers = set(level.centers)
            assert centers <= set(prev.centers)  # nested
            for g in level.centers:  # 2-separating in the quotient graph
                near = graph_bfs_within(prev.edges, g, 2)
                assert not (set(near) - {g}) & centers
            for g in prev.centers:  # 2-covering with parents at distance <= 2
                par = level.parent[g]
                dist = graph_bfs_within(prev.edges, g, 2)
                assert par in dist
            # clusters partition the window
            leaves = [h for c in level.centers for h in f.cluster(n, c)]
            assert sorted(leaves) == list(range(len(f.window)))

    @pytest.mark.parametrize("group,radius", FOREST_CASES,
                             ids=lambda v: getattr(v, "spec", v))
    def test_parents_match_per_non_center_search(self, group, radius):
        f = forest(group, radius, 3)
        for n in range(1, 4):
            assert list(f.levels[n].parent.items()) == list(
                oracle_parents(f, n).items())

    @pytest.mark.parametrize("group,radius", FOREST_CASES,
                             ids=lambda v: getattr(v, "spec", v))
    def test_clusters_and_edges_match_window_oracle(self, group, radius):
        f = forest(group, radius, 3)
        for n, (clusters, edges) in enumerate(oracle_clusters_and_edges(f),
                                              start=1):
            level = f.levels[n]
            assert {c: set(f.cluster(n, c)) for c in level.centers} == {
                c: set(leaves) for c, leaves in clusters.items()}
            assert list(level.edges.items()) == list(edges.items())
            for c in level.centers:  # children in canonical order
                kids = sorted((a for a, p in level.parent.items() if p == c),
                              key=canonical(f))
                assert f.cluster(n, c) == [
                    leaf for a in kids for leaf in f.cluster(n - 1, a)]

    @pytest.mark.parametrize("group,radius", FOREST_CASES,
                             ids=lambda v: getattr(v, "spec", v))
    def test_interior_centers_match_ball_search(self, group, radius):
        f = forest(group, radius, 3)
        for n in range(f.depth + 1):
            assert f.interior_centers(n) == oracle_interior_centers(f, n)

    @pytest.mark.parametrize("group,radius", FOREST_CASES,
                             ids=lambda v: getattr(v, "spec", v))
    def test_centers_match_greedy_net(self, group, radius):
        # The one-pass level picks the greedy maximal 2-net of its scan.
        f = forest(group, radius, 3)
        for n in range(1, 4):
            prev = f.levels[n - 1]
            assert list(f.levels[n].centers) == greedy_rnet(
                prev.centers, prev.edges, 2)

    def test_one_search_per_center(self, monkeypatch):
        # Each center's radius-2 search picks the net and the parents both.
        searches = []

        def counting_bfs(start, neighbors, radius):
            searches.append((start, radius))
            return bfs(start, neighbors, radius)

        monkeypatch.setattr(density, "bfs", counting_bfs)
        f = forest(IntegerLattice(2), 14, 3)
        assert searches == [(c, 2) for level in f.levels[1:]
                            for c in level.centers]

    def test_interior_centers_have_full_balls(self):
        z2 = IntegerLattice(2)
        f = forest(z2, 12, 2)
        members = f.window.members
        for n in (1, 2):
            interior = f.interior_centers(n)
            assert interior
            for g in interior:
                assert set(z2.ball(center=members[g], radius=n).members) <= (
                    set(members))

    @pytest.mark.parametrize("group,radius", [
        (IntegerLattice(1), 15),
        (IntegerLattice(2), 12),
    ])
    def test_cluster_sandwich(self, group, radius):
        f = forest(group, radius, 2)
        members = f.window.members
        for n in (1, 2):
            outer = (5 ** n - 1) // 2
            for g in f.interior_centers(n):
                cluster = {members[h] for h in f.cluster(n, g)}
                center = members[g]
                inner_ball = set(group.ball(center=center, radius=n).members)
                outer_ball = set(group.ball(center=center,
                                            radius=outer).members)
                assert inner_ball <= cluster <= outer_ball

    def test_levels_must_be_positive(self):
        with pytest.raises(InputError):
            forest(IntegerLattice(1), 10, 0)

    def test_small_window_degenerates_to_one_center(self):
        f = forest(IntegerLattice(1), 1, 3)
        assert len(f.levels[3].centers) == 1
        assert set(f.cluster(3, f.levels[3].centers[0])) == set(
            range(len(f.window))
        )


class TestConvexEnumeration:
    def test_single_leaf(self):
        f = forest(IntegerLattice(1), 0, 1)
        assert convex_enumeration(f, 0) == [0]

    def test_unknown_component(self):
        f = forest(IntegerLattice(1), 10, 1)
        with pytest.raises(InputError):
            convex_enumeration(f, f.window.index[(1,)])

    @pytest.mark.parametrize("group,radius", [
        (IntegerLattice(1), 15),
        (IntegerLattice(2), 8),
        (FreeGroup(2), 4),
    ])
    def test_contiguous_intervals(self, group, radius):
        f = forest(group, radius, 2)
        for top in f.levels[2].centers:
            order = convex_enumeration(f, top)
            assert sorted(order) == sorted(f.cluster(2, top))
            position = {leaf: i for i, leaf in enumerate(order)}
            for c in f.levels[1].centers:
                idx = [position[h] for h in f.cluster(1, c)
                       if h in position]
                if idx:
                    assert max(idx) - min(idx) == len(idx) - 1


class TestSturmian:
    def test_two_fifths(self):
        assert sturmian(Fraction(2, 5), 5) == [0, 0, 1, 0, 1]

    def test_one_half(self):
        assert sturmian(Fraction(1, 2), 4) == [0, 1, 0, 1]

    @pytest.mark.parametrize("alpha", [
        Fraction(2, 5), Fraction(1, 2), Fraction(377, 610),
    ])
    def test_balance_up_to_length_60(self, alpha):
        bits = sturmian(alpha, 2 * alpha.denominator + 60)
        prefix = [0]
        for b in bits:
            prefix.append(prefix[-1] + b)
        for length in range(1, 61):
            window_sums = [prefix[i + length] - prefix[i]
                           for i in range(len(bits) - length + 1)]
            assert max(window_sums) - min(window_sums) <= 1

    @given(
        st.fractions(min_value=Fraction(0), max_value=Fraction(1),
                     max_denominator=30),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_ones_count_closed_form(self, alpha, start, count):
        bits = sturmian(alpha, start + count)[start:]
        expected = ((start + count) * alpha).__floor__() - (
            start * alpha
        ).__floor__()
        assert sum(bits) == expected

    @given(
        st.sampled_from([Fraction(0), Fraction(1)])
        | st.fractions(min_value=Fraction(0), max_value=Fraction(1),
                       max_denominator=10 ** 6),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=10 ** 4),
    )
    def test_integer_floors_match_fraction_floors(self, alpha, count, start):
        assert sturmian(alpha, start + count)[start:] == oracle_sturmian(
            alpha, count, start=start)


class TestFillAndVerify:
    def test_alpha_zero_and_one(self):
        f = forest(IntegerLattice(1), 10, 1)
        assert set(fill_density(f, Slope.parse("0")).colors) == {0}
        assert set(fill_density(f, Slope.parse("1")).colors) == {1}

    def test_cluster_share_on_z(self):
        f = forest(IntegerLattice(1), 10, 1)
        x = fill_density(f, Slope.parse("2/5"))
        cluster = f.cluster(1, f.window.index[(0,)])
        ones = sum(x[f.window.members[h]] for h in cluster)
        assert ones in (1, 2)

    def test_all_ones_fails_half_slope(self):
        z = IntegerLattice(1)
        f = forest(z, 10, 1)
        report = verify_condition1(all_ones_window(z, 10), f,
                                   Slope.parse("1/2"))
        assert not report.ok
        assert any(c.size >= 3 and not c.ok for c in report.clusters)
        # Reports name centers by their elements.
        assert {c.center for c in report.clusters} <= set(f.window.members)
        assert (0,) in {c.center for c in report.clusters}

    def test_window_mismatch(self):
        z = IntegerLattice(1)
        f = forest(z, 10, 1)
        with pytest.raises(InputError):
            verify_condition1(all_ones_window(z, 8), f, Slope.parse("1/2"))

    @pytest.mark.parametrize("group,radius,levels", [
        (IntegerLattice(1), 15, 2),
        (IntegerLattice(2), 8, 1),
        (FreeGroup(2), 4, 1),
    ])
    @pytest.mark.parametrize("alpha", ["2/5", "377/610"])
    def test_pipeline_and_aggregate(self, group, radius, levels, alpha):
        f = forest(group, radius, levels)
        slope = Slope.parse(alpha)
        x = fill_density(f, slope)
        report = verify_condition1(x, f, slope)
        assert report.clusters
        assert report.ok
        for agg in report.aggregates:
            assert abs(agg.dens - slope.value) <= agg.bound


class TestForbiddenCheck:
    def test_n1_vacuous(self):
        z = IntegerLattice(1)
        x = all_ones_window(z, 10)
        f = [(i,) for i in range(-3, 4)]
        check = forbidden_check(x, f, Slope.parse("1/3"), 1)
        assert check.allowed

    def test_all_ones_forbidden_at_n2(self):
        z = IntegerLattice(1)
        x = all_ones_window(z, 500)
        f = [(i,) for i in range(-500, 501)]
        check = forbidden_check(x, f, Slope.parse("1/3"), 2)
        assert check.hypothesis_holds
        assert check.boundary_size == 50
        assert check.deviation == Fraction(2, 3)
        assert not check.allowed

    def test_fill_output_allowed_at_n2(self):
        z = IntegerLattice(1)
        slope = Slope.parse("1/3")
        x = fill_density(forest(z, 500, 1), slope)
        f = [(i,) for i in range(-500, 501)]
        check = forbidden_check(x, f, slope, 2)
        assert check.hypothesis_holds
        assert check.allowed

    def test_support_escape_rejected(self):
        z = IntegerLattice(1)
        x = all_ones_window(z, 5)
        with pytest.raises(InputError):
            forbidden_check(x, [(9,)], Slope.parse("1/2"), 1)


# One window per model for the measure.
MEASURE_WINDOWS = [(group, group.ball(radius=radius)) for group, radius in [
    (IntegerLattice(1), 9), (IntegerLattice(2), 5), (FreeGroup(2), 3),
    (FreeProductZ2Z3(), 6), (DiscreteHeisenberg(), 3),
]]


class TestMeasureDensity:
    def test_all_ones(self):
        z2 = IntegerLattice(2)
        x = all_ones_window(z2, 5)
        entries = measure_density(x, ball_sequence(x, range(1, 6)))
        assert all(dens == 1 for _, _, _, dens in entries)

    def test_checkerboard_against_closed_form(self):
        z2 = IntegerLattice(2)
        window = z2.ball(radius=10)
        colors = tuple((g[0] + g[1]) % 2 for g in window.members)
        x = WindowConfig(group=z2, window=window, colors=colors,
                         alphabet_size=2)
        entries = measure_density(x, ball_sequence(x, range(1, 11)))
        for r, (desc, size, ones, dens) in enumerate(entries, 1):
            assert desc == f"B(1,{r})"
            assert size == 2 * r * r + 2 * r + 1
            # Odd spheres carry the ones: |S(d)| = 4d for d >= 1.
            assert ones == sum(4 * d for d in range(1, r + 1, 2))
            assert dens == Fraction(ones, size)
        # Deviations shrink toward the slope from radius 5 on.
        devs = [abs(dens - Fraction(1, 2)) for _, _, _, dens in entries]
        assert all(dev <= Fraction(1, 10) for dev in devs[4:])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prefixes_match_the_element_set_oracle(self, data):
        group, window = data.draw(st.sampled_from(MEASURE_WINDOWS))
        alphabet = data.draw(st.integers(min_value=2, max_value=5))
        colors = data.draw(st.lists(
            st.integers(min_value=0, max_value=alphabet - 1),
            min_size=len(window), max_size=len(window)))
        radii = data.draw(st.lists(
            st.integers(min_value=0, max_value=window.radius), min_size=1,
            max_size=8))
        x = WindowConfig(group=group, window=window, colors=tuple(colors),
                         alphabet_size=alphabet)
        # Each ball searched again from scratch, read element by element.
        sets = [group.ball(radius=r).members for r in radii]
        assert measure_density(x, ball_sequence(x, radii)) == (
            oracle_measure_density(x, sets, [f"B(1,{r})" for r in radii]))

    def test_ball_sequence_cap(self):
        z = IntegerLattice(1)
        x = all_ones_window(z, 3)
        with pytest.raises(InputError):
            ball_sequence(x, [5])
